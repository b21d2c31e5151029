open Sxsi_xml
open Sxsi_tree
open Sxsi_auto

type one = {
  doc : Document.t;
  path : Sxsi_xpath.Ast.path;
  auto : Automaton.t Lazy.t;
  bu : Bottom_up.plan option;
}

type compiled = one list   (* a union of absolute paths; never empty *)

type strategy = Auto | Top_down | Bottom_up

module Trace = Sxsi_obs.Trace
module Budget = Sxsi_qos.Budget
module J = Sxsi_obs.Journal

let maybe_time trace phase f =
  match trace with None -> f () | Some tr -> Trace.time tr phase f

(* Flight-recorder span names, interned once. *)
let n_prepare = J.name "engine/prepare"
let n_compile = J.name "engine/compile"
let n_select = J.name "engine/select"
let n_count = J.name "engine/count"
let n_bottom_up = J.name "engine/bottom_up"
let n_top_down = J.name "engine/top_down"
let n_materialize = J.name "engine/materialize"
let n_optimize = J.name "engine/optimize"

(* A span whose End record carries a result count in [b] — the count
   only exists once the thunk returns. *)
let span_counted nm count f =
  J.begin_span J.Engine nm ();
  match f () with
  | v ->
    J.end_span J.Engine nm ~b:(count v) ();
    v
  | exception e ->
    J.end_span J.Engine nm ();
    raise e

(* Fault-injection site at the head of every evaluation entry point
   (count/select/...): lets tests stall or fail a query between
   admission and the first budget check.  One atomic load when
   inactive. *)
let eval_failpoint = Sxsi_qos.Failpoint.site "engine.eval"

(* Run [f] under [budget]: fail fast if the deadline already passed
   (e.g. the request waited it out in the accept queue), and install
   the budget ambiently so the FM-index loops check it without
   parameter threading. *)
let with_budget budget f =
  match budget with
  | None -> f ()
  | Some b ->
    Budget.check_now b;
    Budget.with_ambient b f

let charge_results budget n =
  match budget with None -> () | Some b -> Budget.add_results b n

let prepare_path ?optimize doc path =
  [
    {
      doc;
      path;
      auto =
        lazy
          (let a = Compile.compile ?optimize doc path in
           (* one instant event per optimized compilation: the journal
              shows the state reduction without a trace attached *)
           (match a.Automaton.opt with
           | Some o ->
             J.instant J.Engine n_optimize ~a:o.Automaton.opt_states_before
               ~b:o.Automaton.opt_states_after ()
           | None -> ());
           a);
      bu = Bottom_up.plan doc path;
    };
  ]

let prepare ?trace ?optimize doc src =
  span_counted n_prepare List.length (fun () ->
      let paths =
        maybe_time trace Trace.Parse (fun () -> Sxsi_xpath.Xpath_parser.parse_union src)
      in
      List.concat_map (prepare_path ?optimize doc) paths)

let one c = List.hd c
let automaton c = Lazy.force (one c).auto
let bottom_up_plan c = (one c).bu

let precompile ?trace c =
  J.with_span J.Engine n_compile (fun () ->
      maybe_time trace Trace.Compile (fun () ->
          List.iter (fun b -> ignore (Lazy.force b.auto)) c))

(* Cheap selectivity estimate for the predicate of a bottom-up plan.  A
   string-value plan also verifies every straddle tail, so those count
   as candidates too. *)
let estimate_matches doc plan =
  let tc = Document.text doc in
  let open Sxsi_xpath.Ast in
  match Bottom_up.pred_of plan with
  | Automaton.Text_pred (op, lit) -> begin
    match op with
    | Contains when Bottom_up.reads_string_value plan ->
      Sxsi_text.Text_collection.global_count tc lit
      + Sxsi_text.Text_collection.straddle_tails_count tc lit
    | Contains -> Sxsi_text.Text_collection.global_count tc lit
    | Eq -> Sxsi_text.Text_collection.equals_count tc lit
    | Starts_with -> Sxsi_text.Text_collection.starts_with_count tc lit
    | Ends_with -> Sxsi_text.Text_collection.ends_with_count tc lit
    | Lt | Le -> Sxsi_text.Text_collection.less_equal_count tc lit
    | Gt | Ge ->
      Sxsi_text.Text_collection.doc_count tc
      - Sxsi_text.Text_collection.less_than_count tc lit
  end
  | Automaton.Custom_pred _ ->
    (* custom predicates have no index estimate; treat as selective
       (the §6.7 behaviour: scan texts once, verify upward) *)
    0

let min_step_tag_count (c : one) =
  let ti = Document.tree c.doc in
  let open Sxsi_xpath.Ast in
  List.fold_left
    (fun acc step ->
      match step.test with
      | Name n -> begin
        match Document.tag_id c.doc n with
        | Some tg -> min acc (Tree_backend.count ti tg)
        | None -> 0
      end
      | Star | Text | Node -> acc)
    (Document.node_count c.doc)
    c.path.steps

let chosen_strategy_one ~funs ~strategy (c : one) =
  match strategy with
  | Top_down -> `Top_down
  | Bottom_up -> begin
    match c.bu with
    | Some _ -> `Bottom_up
    | None -> invalid_arg "Engine: query has no bottom-up shape"
  end
  | Auto -> begin
    match c.bu with
    | Some plan when not (Bottom_up.matches_empty_value ~funs plan) ->
      if estimate_matches c.doc plan < min_step_tag_count c then `Bottom_up
      else `Top_down
    | Some _ | None -> `Top_down
  end

let chosen_strategy ?(funs = fun _ -> None) ?(strategy = Auto) c =
  chosen_strategy_one ~funs ~strategy (one c)

let select_one ?budget ?config ~funs ~strategy (c : one) =
  match chosen_strategy_one ~funs ~strategy c with
  | `Bottom_up ->
    span_counted n_bottom_up Array.length (fun () ->
        match c.bu with
        | Some plan -> Array.of_list (Bottom_up.run ?budget ~funs c.doc plan)
        | None -> assert false)
  | `Top_down ->
    span_counted n_top_down Array.length (fun () ->
        let auto = Lazy.force c.auto in
        let marks = Run.run ?budget ?config ~funs Run.marks_sem auto in
        let pos = Marks.positions (Document.tree c.doc) marks in
        if auto.Automaton.needs_dedup then
          Array.of_list (List.sort_uniq compare (Array.to_list pos))
        else begin
          (* marks are duplicate-free but the interleaving of a match
             formula with its scan continuation is not ordered *)
          Array.sort compare pos;
          pos
        end)

let select_impl ?budget ?config ~funs ~strategy c =
  match c with
  | [ single ] -> select_one ?budget ?config ~funs ~strategy single
  | branches ->
    (* union: evaluate each branch and merge, removing duplicates *)
    List.concat_map
      (fun b -> Array.to_list (select_one ?budget ?config ~funs ~strategy b))
      branches
    |> List.sort_uniq compare |> Array.of_list

let count_impl ?budget ?config ~funs ~strategy c =
  match c with
  | [ single ] -> begin
    match chosen_strategy_one ~funs ~strategy single with
    | `Bottom_up ->
      span_counted n_bottom_up Fun.id (fun () ->
          match single.bu with
          | Some plan -> List.length (Bottom_up.run ?budget ~funs single.doc plan)
          | None -> assert false)
    | `Top_down ->
      let auto = Lazy.force single.auto in
      if auto.Automaton.needs_dedup then
        Array.length (select_one ?budget ?config ~funs ~strategy:Top_down single)
      else
        span_counted n_top_down Fun.id (fun () ->
            Run.run ?budget ?config ~funs
              (Run.count_sem (Document.tree single.doc))
              auto)
  end
  | branches -> Array.length (select_impl ?budget ?config ~funs ~strategy branches)

(* Install fresh FM/tag probes for the duration of a traced evaluation
   and fold their readings into the trace: call/step counts become
   trace counters, the locate/extract wall time becomes the [Fm_locate]
   and [Fm_extract] sub-phases.  The previous probes are restored on
   exit; attribution is approximate when other domains evaluate
   concurrently (they feed whichever probe is installed). *)
let with_probes tr f =
  let open Sxsi_fm.Fm_index in
  let fm_prev = current_probe () in
  let tag_prev = Tag_index.current_probe () in
  let fm = create_probe () in
  let tag = Tag_index.create_probe () in
  set_probe (Some fm);
  Tag_index.set_probe (Some tag);
  Fun.protect
    ~finally:(fun () ->
      set_probe fm_prev;
      Tag_index.set_probe tag_prev;
      let get = Sxsi_obs.Counter.get in
      Trace.add_counter tr "fm_search_calls" (get fm.search_calls);
      Trace.add_counter tr "fm_search_steps" (get fm.search_steps);
      Trace.add_counter tr "fm_locate_calls" (get fm.locate_calls);
      Trace.add_counter tr "fm_locate_steps" (get fm.locate_steps);
      Trace.add_counter tr "fm_extract_calls" (get fm.extract_calls);
      Trace.add_counter tr "tag_jumps" (get tag.Tag_index.jump_calls);
      Trace.add_counter tr "tag_reads" (get tag.Tag_index.tag_reads);
      Trace.add_ns tr Trace.Fm_locate (get fm.locate_ns);
      Trace.add_ns tr Trace.Fm_extract (get fm.extract_ns))
    f

(* Time the [Run] phase of a traced evaluation and publish the run
   statistics (as deltas, so a reused caller-supplied config still
   reports this query alone). *)
let eval_traced trace config f =
  match trace with
  | None -> f config
  | Some tr ->
    let config = match config with Some c -> c | None -> Run.default_config () in
    let before = Run.copy_stats config.Run.stats in
    let result = with_probes tr (fun () -> Trace.time tr Trace.Run (fun () -> f (Some config))) in
    List.iter2
      (fun (k, a) (_, b) -> Trace.add_counter tr k (a - b))
      (Run.stats_assoc config.Run.stats)
      (Run.stats_assoc before);
    result

let finish_trace ~funs ~strategy trace c nresults =
  match trace with
  | None -> ()
  | Some tr ->
    Trace.set_counter tr "results" nresults;
    (match c with
    | [ single ] ->
      let bu =
        match chosen_strategy_one ~funs ~strategy single with
        | `Bottom_up -> 1
        | `Top_down -> 0
      in
      Trace.set_counter tr "bottom_up" bu;
      (* optimizer ledger, when the automaton was compiled (traced
         evaluations precompile, so this is the common case) *)
      if Lazy.is_val single.auto then begin
        match (Lazy.force single.auto).Automaton.opt with
        | Some o ->
          Trace.set_counter tr "opt_states_before" o.Automaton.opt_states_before;
          Trace.set_counter tr "opt_states_after" o.Automaton.opt_states_after;
          Trace.set_counter tr "opt_trans_before" o.Automaton.opt_trans_before;
          Trace.set_counter tr "opt_trans_after" o.Automaton.opt_trans_after;
          Trace.set_counter tr "opt_jump_tags" o.Automaton.opt_jump_tags
        | None -> ()
      end
    | _ -> ())

let select ?budget ?config ?(funs = fun _ -> None) ?(strategy = Auto) ?trace c =
  Sxsi_qos.Failpoint.hit eval_failpoint;
  if Option.is_some trace then precompile ?trace c;
  let nodes =
    span_counted n_select Array.length (fun () ->
        with_budget budget (fun () ->
            eval_traced trace config (fun config ->
                select_impl ?budget ?config ~funs ~strategy c)))
  in
  charge_results budget (Array.length nodes);
  finish_trace ~funs ~strategy trace c (Array.length nodes);
  nodes

let count ?budget ?config ?(funs = fun _ -> None) ?(strategy = Auto) ?trace c =
  Sxsi_qos.Failpoint.hit eval_failpoint;
  if Option.is_some trace then precompile ?trace c;
  let n =
    span_counted n_count Fun.id (fun () ->
        with_budget budget (fun () ->
            eval_traced trace config (fun config ->
                count_impl ?budget ?config ~funs ~strategy c)))
  in
  finish_trace ~funs ~strategy trace c n;
  n

let select_preorders ?budget ?config ?funs ?strategy ?trace c =
  let nodes = select ?budget ?config ?funs ?strategy ?trace c in
  J.with_span J.Engine n_materialize (fun () ->
      maybe_time trace Trace.Materialize (fun () ->
          Array.map (Document.preorder (one c).doc) nodes))

let serialize_to ?budget ?config ?funs ?strategy ?trace ?framed buf c =
  let nodes = select ?budget ?config ?funs ?strategy ?trace c in
  let doc = (one c).doc in
  J.with_span J.Engine n_materialize (fun () ->
      maybe_time trace Trace.Materialize (fun () ->
          with_budget budget (fun () ->
              Array.iter (Document.serialize_into ?budget ?framed buf doc) nodes)));
  Array.length nodes
