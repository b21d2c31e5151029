(* Formula hash-consing and automaton compilation sanity tests. *)

open Sxsi_auto
open Sxsi_xml

let test_hash_consing () =
  let f1 = Formula.conj (Formula.down1 1) (Formula.down2 2) in
  let f2 = Formula.conj (Formula.down1 1) (Formula.down2 2) in
  Alcotest.(check bool) "physically equal" true (f1 == f2);
  Alcotest.(check bool) "ids equal" true (f1.Formula.id = f2.Formula.id);
  let f3 = Formula.conj (Formula.down2 2) (Formula.down1 1) in
  Alcotest.(check bool) "order matters structurally" false (f1 == f3)

let test_constant_folding () =
  Alcotest.(check bool) "T and x = x" true
    (Formula.conj Formula.tru (Formula.down1 1) == Formula.down1 1);
  Alcotest.(check bool) "F and x = F" true
    (Formula.conj Formula.fls (Formula.down1 1) == Formula.fls);
  Alcotest.(check bool) "T or x = T" true
    (Formula.disj Formula.tru (Formula.down1 1) == Formula.tru);
  Alcotest.(check bool) "not not via neg" true
    (Formula.neg Formula.tru == Formula.fls);
  Alcotest.(check bool) "x and x = x" true
    (Formula.conj (Formula.down1 3) (Formula.down1 3) == Formula.down1 3)

let test_atom_sets () =
  let f =
    Formula.conj
      (Formula.disj (Formula.down1 5) (Formula.down2 7))
      (Formula.conj (Formula.down1 3) Formula.mark)
  in
  Alcotest.(check (list int)) "down1" [ 3; 5 ] f.Formula.down1;
  Alcotest.(check (list int)) "down2" [ 7 ] f.Formula.down2;
  Alcotest.(check bool) "has_mark" true f.Formula.has_mark

let doc () =
  Document.of_xml
    "<site><listitem><keyword>k1<emph>e</emph></keyword></listitem>\
     <listitem><keyword>k2</keyword></listitem></site>"

let test_compile_shapes () =
  let d = doc () in
  let q = Sxsi_xpath.Xpath_parser.parse "//listitem//keyword[emph]" in
  let a = Compile.compile d q in
  (* start state has exactly one transition, guarded by the root tag *)
  let trs = Automaton.transitions a a.Automaton.start in
  Alcotest.(check int) "one start transition" 1 (List.length trs);
  (match trs with
  | [ { Automaton.guard = Formula.Tag t; _ } ] ->
    Alcotest.(check int) "guarded by &" Document.root_tag t
  | _ -> Alcotest.fail "unexpected start guard");
  (* scanning states registered with scan_info *)
  let scans =
    List.filter (fun q -> Automaton.scan_info a q <> None) a.Automaton.states
  in
  Alcotest.(check bool) "at least 3 scan states" true (List.length scans >= 3)

let test_compile_collect_flag () =
  let d = doc () in
  let a = Compile.compile d (Sxsi_xpath.Xpath_parser.parse "//keyword") in
  let collects =
    List.filter
      (fun q ->
        match Automaton.scan_info a q with
        | Some { Automaton.scan_collect = true; _ } -> true
        | _ -> false)
      a.Automaton.states
  in
  Alcotest.(check int) "one collect state" 1 (List.length collects);
  (* with a filter the state is not a pure collector *)
  let a2 = Compile.compile d (Sxsi_xpath.Xpath_parser.parse "//keyword[emph]") in
  let collects2 =
    List.filter
      (fun q ->
        match Automaton.scan_info a2 q with
        | Some { Automaton.scan_collect = true; _ } -> true
        | _ -> false)
      a2.Automaton.states
  in
  Alcotest.(check int) "no collect state" 0 (List.length collects2)

let test_compile_unknown_tag () =
  let d = doc () in
  let a = Compile.compile d (Sxsi_xpath.Xpath_parser.parse "//nonexistent") in
  (* the start transition formula collapses to true: no results, accept *)
  match Automaton.transitions a a.Automaton.start with
  | [ { Automaton.phi; _ } ] ->
    Alcotest.(check bool) "trivial formula" true (phi == Formula.tru)
  | _ -> Alcotest.fail "unexpected transitions"

let test_compile_pred_dedup () =
  let d = doc () in
  let a =
    Compile.compile d
      (Sxsi_xpath.Xpath_parser.parse
         "//keyword[contains(., \"x\") or contains(., \"x\")]")
  in
  Alcotest.(check int) "one predicate" 1 (Array.length a.Automaton.preds)

let test_compile_rejects_absolute_pred () =
  let d = doc () in
  match
    Compile.compile d (Sxsi_xpath.Xpath_parser.parse "//keyword[/site/listitem]")
  with
  | exception Compile.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_to_string_smoke () =
  let d = doc () in
  let a = Compile.compile d (Sxsi_xpath.Xpath_parser.parse "//listitem[keyword]") in
  let s = Automaton.to_string a in
  Alcotest.(check bool) "mentions listitem" true
    (String.length s > 0
    &&
    let rec find i =
      i + 8 <= String.length s && (String.sub s i 8 = "listitem" || find (i + 1))
    in
    find 0)

(* ------------------------------------------------------------------ *)
(* Whole-query optimizer: differential harness and unit tests           *)
(* ------------------------------------------------------------------ *)

module Engine = Sxsi_core.Engine

(* Queries chosen to exercise every optimizer path: multi-tag frontier
   scans over star steps, drop-scans over star chains, sibling scans
   over child steps, attribute and text guards, predicates (dead,
   duplicated, nested), and following-sibling remainders. *)
let opt_queries =
  [
    "//*";
    "//*//*";
    "//*//*//*";
    "//item";
    "//a//b";
    "//a/b";
    "/a/b/c";
    "//*[@k]";
    "//a[contains(., 't')]";
    "//b[. = 'hello']";
    "//item[a or b]";
    "//item[a and not(b)]";
    "//a[zzz_nonexistent]";
    "//a[b or b]";
    "//a//zzz_nonexistent//b";
    "//a/following-sibling::b";
    "//text()";
    "//a[.//b]/c";
  ]

(* Byte-identical count/select/serialize between the raw translation
   and the optimized automaton, over one document. *)
let opt_agree doc =
  List.for_all
    (fun q ->
      let craw = Engine.prepare ~optimize:false doc q in
      let copt = Engine.prepare ~optimize:true doc q in
      Engine.count craw = Engine.count copt
      && Engine.select_preorders craw = Engine.select_preorders copt
      &&
      let braw = Buffer.create 256 and bopt = Buffer.create 256 in
      let nraw = Engine.serialize_to braw craw in
      let nopt = Engine.serialize_to bopt copt in
      nraw = nopt && Buffer.contents braw = Buffer.contents bopt)
    opt_queries

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_optimize_differential =
  qtest ~count:40 "optimized results agree on random documents" Test_xml.gen_xml
    (fun src ->
      opt_agree (Document.of_xml ~backend:`Bp src)
      && opt_agree (Document.of_xml ~backend:`Grammar src))

let opt_fixed_docs () =
  [
    ("fig1", Test_xml.fig1_xml);
    ("single", "<a/>");
    ("nested", "<a><a><a><a>deep</a></a></a></a>");
    ("logs", Sxsi_datagen.Logs.generate ~entries:300 ());
    ("xmark", Sxsi_datagen.Xmark.generate ~scale:40 ());
  ]

let test_optimize_fixed_docs () =
  List.iter
    (fun (name, xml) ->
      List.iter
        (fun backend ->
          Alcotest.(check bool) (name ^ " agrees") true
            (opt_agree (Document.of_xml ~backend xml)))
        [ `Bp; `Grammar ])
    (opt_fixed_docs ())

let test_optimize_xmark_queries () =
  (* the bench battery itself, where the acceptance criterion lives *)
  let doc = Document.of_xml (Sxsi_datagen.Xmark.generate ~scale:60 ()) in
  List.iter
    (fun q ->
      let craw = Engine.prepare ~optimize:false doc q in
      let copt = Engine.prepare ~optimize:true doc q in
      Alcotest.(check int) (q ^ " count") (Engine.count craw) (Engine.count copt);
      Alcotest.(check bool) (q ^ " nodes") true
        (Engine.select_preorders craw = Engine.select_preorders copt))
    [
      "/site/regions/*/item";
      "//listitem//keyword";
      "/site/people/person[phone or homepage]/name";
      "//listitem[not(.//keyword/emph)]//parlist";
      "//people[.//person[not(address)] and .//person[not(watches)]]/person[watches]";
      "//*//*";
      "//*//*//*//*";
    ]

(* The optimizer over documents built under every pool size, for both
   backends. *)
let test_optimize_pools_agree () =
  let xml = Sxsi_datagen.Logs.generate ~entries:400 () in
  List.iter
    (fun backend ->
      List.iter
        (fun lazy_pool ->
          let pool = Lazy.force lazy_pool in
          Alcotest.(check bool)
            (Printf.sprintf "built under pool size %d agrees" (Sxsi_par.Pool.size pool))
            true
            (opt_agree (Document.of_xml ~pool ~backend xml)))
        [ Test_par.pool1; Test_par.pool2; Test_par.pool4 ])
    [ `Bp; `Grammar ]

let opt_automaton q =
  let d = doc () in
  let raw = Compile.compile ~optimize:false d (Sxsi_xpath.Xpath_parser.parse q) in
  let opt = Compile.compile ~optimize:true d (Sxsi_xpath.Xpath_parser.parse q) in
  (raw, opt, Option.get (Optimize.stats opt))

let count_transitions a =
  List.fold_left
    (fun acc q -> acc + List.length (Automaton.transitions a q))
    0 a.Automaton.states

let test_optimize_dead_state_removed () =
  (* [emph/zzz] can never hold: the predicate's states are dead and the
     transitions referring to them fold away *)
  let raw, opt, st = opt_automaton "//keyword[emph/zzz]" in
  Alcotest.(check bool) "states shrink" true
    (List.length opt.Automaton.states < List.length raw.Automaton.states);
  Alcotest.(check int) "stats agree with the automaton"
    (List.length opt.Automaton.states)
    st.Automaton.opt_states_after;
  Alcotest.(check bool) "transitions shrink" true
    (count_transitions opt < count_transitions raw);
  (* the raw translation is untouched by optimizing its sibling *)
  Alcotest.(check bool) "raw untouched" true (Optimize.stats raw = None)

let test_optimize_dead_transition_removed () =
  (* the [zzz] predicate state is dead, so the keyword-guarded match
     transition folds to F and is dropped *)
  let _, opt, st = opt_automaton "//listitem[zzz]" in
  Alcotest.(check bool) "transitions removed" true
    (st.Automaton.opt_trans_after < st.Automaton.opt_trans_before);
  (* no surviving transition formula mentions a dropped state *)
  let live = opt.Automaton.states in
  List.iter
    (fun q ->
      List.iter
        (fun { Automaton.phi; _ } ->
          List.iter
            (fun s -> Alcotest.(check bool) "down1 atom live" true (List.mem s live))
            phi.Formula.down1;
          List.iter
            (fun s -> Alcotest.(check bool) "down2 atom live" true (List.mem s live))
            phi.Formula.down2)
        (Automaton.transitions opt q))
    live

let test_optimize_duplicate_states_merged () =
  let _, _, st = opt_automaton "//keyword[emph or emph]" in
  Alcotest.(check bool) "duplicate predicate states merged" true
    (st.Automaton.opt_merged_states >= 1);
  Alcotest.(check bool) "states shrink" true
    (st.Automaton.opt_states_after < st.Automaton.opt_states_before)

let test_optimize_jump_sets () =
  let _, opt, st = opt_automaton "//listitem//keyword" in
  Alcotest.(check bool) "some jump sets" true (st.Automaton.opt_jump_states > 0);
  (* every scanning state carries one, restricted to tags that occur *)
  let ti = Sxsi_xml.Document.tree (doc ()) in
  List.iter
    (fun q ->
      match Automaton.scan_info opt q with
      | None -> ()
      | Some _ ->
        (match Automaton.jump_set opt q with
        | None -> Alcotest.fail "scan state without a jump set"
        | Some tags ->
          Array.iter
            (fun t ->
              Alcotest.(check bool) "jump tag occurs" true
                (Sxsi_tree.Tree_backend.count ti t > 0))
            tags))
    opt.Automaton.states

let test_optimize_idempotent () =
  let _, opt, st = opt_automaton "//listitem//keyword[emph]" in
  Optimize.run opt;
  Alcotest.(check bool) "second run is a no-op" true
    (Optimize.stats opt = Some st)

let suite =
  ( "auto",
    [
      Alcotest.test_case "hash consing" `Quick test_hash_consing;
      Alcotest.test_case "constant folding" `Quick test_constant_folding;
      Alcotest.test_case "atom sets" `Quick test_atom_sets;
      Alcotest.test_case "compile shapes" `Quick test_compile_shapes;
      Alcotest.test_case "collect flag" `Quick test_compile_collect_flag;
      Alcotest.test_case "unknown tag" `Quick test_compile_unknown_tag;
      Alcotest.test_case "predicate dedup" `Quick test_compile_pred_dedup;
      Alcotest.test_case "absolute pred rejected" `Quick
        test_compile_rejects_absolute_pred;
      Alcotest.test_case "to_string" `Quick test_to_string_smoke;
      prop_optimize_differential;
      Alcotest.test_case "optimize: fixed docs agree" `Quick test_optimize_fixed_docs;
      Alcotest.test_case "optimize: xmark queries agree" `Quick
        test_optimize_xmark_queries;
      Alcotest.test_case "optimize: pools agree" `Quick test_optimize_pools_agree;
      Alcotest.test_case "optimize: dead state removed" `Quick
        test_optimize_dead_state_removed;
      Alcotest.test_case "optimize: dead transition removed" `Quick
        test_optimize_dead_transition_removed;
      Alcotest.test_case "optimize: duplicate states merged" `Quick
        test_optimize_duplicate_states_merged;
      Alcotest.test_case "optimize: jump sets" `Quick test_optimize_jump_sets;
      Alcotest.test_case "optimize: idempotent" `Quick test_optimize_idempotent;
    ] )
