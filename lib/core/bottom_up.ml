open Sxsi_xml
open Sxsi_tree
open Sxsi_xpath.Ast

(* The plan flattens the query into one chain of child/descendant steps
   ending at the node the text predicate applies to; the query's answer
   node sits at [result_idx] in the chain.  E.g.
   //Article[.//AbstractText[contains(., "x")]]  becomes the chain
   [descendant::Article; descendant::AbstractText] with the predicate
   on the last step and result_idx = 0. *)
type plan = {
  steps : step array;     (* chain, predicates stripped *)
  result_idx : int;
  pred : Sxsi_auto.Automaton.pred_descr;
}

(* Flatten a step list into (chain, predicate), accepting only
   single-chain shapes: child/descendant axes, no predicates except one
   trailing value predicate (possibly nested through Exists paths or a
   value path). *)
let rec flatten steps =
  match steps with
  | [] -> None
  | [ last ] ->
    if last.axis <> Child && last.axis <> Descendant && last.axis <> Attribute then
      None
    else begin
      match last.preds with
      | [ Value ({ absolute = false; steps = [] }, op, lit) ] ->
        Some ([ { last with preds = [] } ], Sxsi_auto.Automaton.Text_pred (op, lit))
      | [ Fun (name, { absolute = false; steps = [] }, arg) ] ->
        Some ([ { last with preds = [] } ], Sxsi_auto.Automaton.Custom_pred (name, arg))
      | [ Value ({ absolute = false; steps = inner_steps }, op, lit) ] ->
        (* contains(a/b, "x"): the value path extends the chain *)
        let inner =
          flatten
            (match List.rev inner_steps with
            | last_inner :: rev_init ->
              List.rev rev_init
              @ [ { last_inner with preds = last_inner.preds @ [ Value ({ absolute = false; steps = [] }, op, lit) ] } ]
            | [] -> [])
        in
        Option.map
          (fun (chain, pred) -> ({ last with preds = [] } :: chain, pred))
          inner
      | [ Exists { absolute = false; steps = inner_steps } ] ->
        Option.map
          (fun (chain, pred) -> ({ last with preds = [] } :: chain, pred))
          (flatten inner_steps)
      | _ -> None
    end
  | step :: rest ->
    if step.preds <> [] || (step.axis <> Child && step.axis <> Descendant) then None
    else
      Option.map (fun (chain, pred) -> ({ step with preds = [] } :: chain, pred)) (flatten rest)

let plan doc (path : path) =
  if not path.absolute || path.steps = [] then None
  else begin
    match flatten path.steps with
    | None -> None
    | Some (chain, pred) ->
      let steps = Array.of_list chain in
      let result_idx = List.length path.steps - 1 in
      let last = steps.(Array.length steps - 1) in
      (* one matching text must pin down one candidate node; attribute
         nodes always hold exactly one value *)
      let target_ok =
        match (last.axis, last.test) with
        | Attribute, (Star | Name _ | Node) -> true
        | Attribute, Text -> false
        | _, Text -> true
        | _, Name n -> begin
          match Document.tag_id doc n with
          | Some tg -> Document.tag_is_pcdata doc tg
          | None -> true (* unknown tag: no results either way *)
        end
        | _, (Star | Node) -> false
      in
      (* attribute steps are only supported in final position *)
      let attrs_ok =
        Array.for_all (fun s -> s.axis <> Attribute)
          (Array.sub steps 0 (Array.length steps - 1))
      in
      if target_ok && attrs_ok then Some { steps; result_idx; pred } else None
  end

let pred_of p = p.pred

let matches_empty_value ?(funs = fun _ -> None) p =
  match p.pred with
  | Sxsi_auto.Automaton.Text_pred (op, lit) -> Run.value_matches op "" lit
  | Sxsi_auto.Automaton.Custom_pred (name, arg) ->
    (Run.custom_fn funs name arg).Run.cp_match ""

let test_ok doc (step : step) x =
  let tg = Document.tag_of doc x in
  match step.axis with
  | Attribute -> begin
    match step.test with
    | Star | Node -> Document.is_attribute_tag doc tg
    | Name n -> Document.attribute_tag_id doc n = Some tg
    | Text -> false
  end
  | Self | Child | Descendant | Following_sibling -> begin
    match step.test with
    | Star -> Document.is_element_tag doc tg
    | Name n -> Document.tag_id doc n = Some tg
    | Text -> tg = Document.text_tag
    | Node ->
      Document.is_element_tag doc tg
      || tg = Document.text_tag || tg = Document.root_tag
  end

(* Whole-query static feasibility, the bottom-up counterpart of the
   optimizer's jump sets: the §5.5.6 relative-tag tables already know
   which tags ever occur below which.  A chain with an impossible
   consecutive Name/Name pair selects nothing, whatever the texts say
   — skip the text-index query and the candidate walks entirely. *)
let chain_feasible doc p =
  let rel = Document.rel doc in
  let k = Array.length p.steps in
  let tag_of i =
    match (p.steps.(i).axis, p.steps.(i).test) with
    | Attribute, _ -> None
    | _, Name n -> Document.tag_id doc n
    | _, (Star | Text | Node) -> None
  in
  let ok = ref true in
  for i = 1 to k - 1 do
    match (tag_of (i - 1), tag_of i, p.steps.(i).axis) with
    | Some ta, Some tb, Child ->
      if not (Tag_rel.mem rel Tag_rel.Child ta tb) then ok := false
    | Some ta, Some tb, Descendant ->
      if not (Tag_rel.mem rel Tag_rel.Descendant ta tb) then ok := false
    | _ -> ()
  done;
  !ok

let run_with_text_time ?budget ?(funs = fun _ -> None) doc p =
  if not (chain_feasible doc p) then (0.0, [])
  else begin
  let bp = Document.tree doc in
  let k = Array.length p.steps in
  let r = p.result_idx in
  (* One step per candidate text: each verification walks a root path
     of bounded depth, so per-candidate granularity keeps the check
     off the inner memoized recursions while still bounding the
     scan-shaped outer loop. *)
  let bcheck =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Sxsi_qos.Budget.check b
  in
  let t0 = Unix.gettimeofday () in
  let texts = Run.text_set_of_pred doc funs p.pred in
  let text_time = Unix.gettimeofday () -. t0 in
  (* upward verification, shared across candidates: can [x] serve as
     the chain's step [i], with steps 0..i-1 assigned to ancestors? *)
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec up_ok i x =
    x >= 0
    &&
    let key = (x * k) + i in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
      let b =
        test_ok doc p.steps.(i) x
        &&
        if i = 0 then begin
          match p.steps.(0).axis with
          | Child -> Tree_backend.parent bp x = Document.root doc
          | Descendant -> x <> Document.root doc
          | Self | Attribute | Following_sibling -> false
        end
        else begin
          match p.steps.(i).axis with
          | Child -> up_ok (i - 1) (Tree_backend.parent bp x)
          | Descendant ->
            let rec up y = y >= 0 && (up_ok (i - 1) y || up (Tree_backend.parent bp y)) in
            up (Tree_backend.parent bp x)
          | Attribute ->
            (* the owner element: above the attribute's "@" list node *)
            let at = Tree_backend.parent bp x in
            at >= 0 && up_ok (i - 1) (Tree_backend.parent bp at)
          | Self | Following_sibling -> false
        end
      in
      Hashtbl.replace memo key b;
      b
  in
  let results = ref [] in
  for ti = 0 to Array.length texts - 1 do
    bcheck ();
    let d = texts.(ti) in
    let leaf = Document.leaf_of_text doc d in
    let candidate =
      if p.steps.(k - 1).axis = Attribute then begin
        (* matched value leaf must be a "%" under an attribute node *)
        if Document.tag_of doc leaf = Document.attval_tag then
          Some (Tree_backend.parent bp leaf)
        else None
      end
      else begin
        match p.steps.(k - 1).test with
        | Text ->
          if Document.tag_of doc leaf = Document.text_tag then Some leaf else None
        | Star | Name _ | Node ->
          let parent = Tree_backend.parent bp leaf in
          if parent >= 0
             && Document.tag_of doc leaf = Document.text_tag
             && Document.pcdata_only doc parent
          then Some parent
          else None
      end
    in
    match candidate with
    | None -> ()
    | Some x_last ->
      (* ancestors of the candidate, chain order A.(0) = candidate *)
      let ancestors =
        let rec go y acc = if y < 0 then List.rev acc else go (Tree_backend.parent bp y) (y :: acc) in
        Array.of_list (go x_last [])
      in
      let depth = Array.length ancestors in
      (* down_ok j idx: ancestors.(idx) serves as step j, with steps
         j+1..k-1 assigned strictly below it on this root path *)
      let down_memo = Hashtbl.create 16 in
      let rec down_ok j idx =
        let key = (j * depth) + idx in
        match Hashtbl.find_opt down_memo key with
        | Some b -> b
        | None ->
          let b =
            test_ok doc p.steps.(j) ancestors.(idx)
            &&
            (if j = k - 1 then idx = 0
             else begin
               match p.steps.(j + 1).axis with
               | Child -> idx > 0 && down_ok (j + 1) (idx - 1)
               | Descendant ->
                 let rec any idx' =
                   idx' >= 0 && (down_ok (j + 1) idx' || any (idx' - 1))
                 in
                 any (idx - 1)
               | Attribute ->
                 (* attribute of this element: two levels down via "@" *)
                 idx > 1 && down_ok (j + 1) (idx - 2)
               | Self | Following_sibling -> false
             end)
          in
          Hashtbl.replace down_memo key b;
          b
      in
      (for idx = 0 to depth - 1 do
         if down_ok r idx && up_ok r ancestors.(idx) then
           results := ancestors.(idx) :: !results
       done)
  done;
  (text_time, List.sort_uniq compare !results)
  end

let run ?budget ?funs doc p = snd (run_with_text_time ?budget ?funs doc p)
