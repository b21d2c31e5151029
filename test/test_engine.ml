(* The decisive correctness tests: the SXSI engine (in every
   configuration and strategy) must select exactly the same nodes as
   the naive DOM oracle, on hand-written documents, on the paper's
   query shapes, and on random document x random query pairs. *)

open Sxsi_core
open Sxsi_xml
open Sxsi_baseline

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let parse = Sxsi_xpath.Xpath_parser.parse

(* Engine ids vs oracle ids for one (xml, query) pair, across engine
   configurations. *)
let configs () =
  [
    ("all-opt", Run.default_config ());
    ("no-jump", { (Run.default_config ()) with Run.enable_jump = false });
    ("early", { (Run.default_config ()) with Run.enable_early = true });
    ("no-memo", { (Run.default_config ()) with Run.enable_memo = false });
    ( "naive",
      {
        (Run.default_config ()) with
        Run.enable_jump = false;
        enable_memo = false;
        enable_early = false;
      } );
  ]

let check_query ?funs ?(dom_funs : (string -> Naive_eval.custom option) option) xml
    query =
  let doc = Document.of_xml xml in
  let dom = Dom.of_xml xml in
  let expected = Naive_eval.eval_ids ?funs:dom_funs dom (parse query) in
  let c = Engine.prepare doc query in
  let failures = ref [] in
  List.iter
    (fun (name, config) ->
      let got =
        Array.to_list (Engine.select_preorders ~config ?funs ~strategy:Engine.Top_down c)
      in
      if got <> expected then failures := (name, got) :: !failures;
      let n = Engine.count ~config ?funs ~strategy:Engine.Top_down c in
      if n <> List.length expected then failures := (name ^ "-count", [ n ]) :: !failures)
    (configs ());
  (match Engine.bottom_up_plan c with
  | Some _ ->
    let got = Array.to_list (Engine.select_preorders ?funs ~strategy:Engine.Bottom_up c) in
    if got <> expected then failures := ("bottom-up", got) :: !failures
  | None -> ());
  (* Auto strategy *)
  let got = Array.to_list (Engine.select_preorders ?funs c) in
  if got <> expected then failures := ("auto", got) :: !failures;
  match !failures with
  | [] -> ()
  | (name, got) :: _ ->
    Alcotest.failf "query %s: %s selected [%s], oracle [%s]" query name
      (String.concat ";" (List.map string_of_int got))
      (String.concat ";" (List.map string_of_int expected))

(* ------------------------------------------------------------------ *)
(* Hand-written documents                                               *)
(* ------------------------------------------------------------------ *)

let site_xml =
  "<site><people><person id=\"p1\"><name>Alice</name><phone>123</phone>\
   <address><city>Springfield</city></address></person>\
   <person id=\"p2\"><name>Bob</name><homepage>hp</homepage></person>\
   <person id=\"p3\"><name>Carol</name><phone>99</phone><watches/></person></people>\
   <regions><item>x</item><item>y<keyword>gold</keyword></item>\
   <listitem><parlist><listitem><keyword>deep<emph>e1</emph></keyword></listitem>\
   </parlist></listitem><listitem><keyword>top</keyword></listitem></regions></site>"

let nested_xml =
  "<r><a><a><b>one</b><a><b>two</b></a></a></a><a><b>three</b></a><b>four</b></r>"

let mixed_xml =
  "<doc><p>hello <b>bold</b> world</p><p>plain</p><q>hello world</q>\
   <p lang=\"en\">attr<i>ibute</i></p></doc>"

let queries_site =
  [
    "/site";
    "/site/people/person";
    "/site/people/person/name";
    "/site/people/person[phone]/name";
    "/site/people/person[phone or homepage]/name";
    "/site/people/person[address and (phone or homepage)]/name";
    "/site/people/person[not(phone)]";
    "//person[watches]";
    "//keyword";
    "//listitem//keyword";
    "//listitem[.//keyword/emph]";
    "//listitem[not(.//keyword/emph)]";
    "//item/following-sibling::listitem";
    "//person/following-sibling::person[phone]";
    "//*";
    "//*//*";
    "//*//*//*";
    "/*[.//*]";
    "//text()";
    "//node()";
    "//@id";
    "//person[@id = 'p2']/name";
    "/descendant::*/attribute::*";
    "//person[name = 'Bob']";
    "//name[starts-with(., 'Car')]";
    "//name[ends-with(., 'ce')]";
    "//keyword[contains(., 'ol')]";
    "//person[contains(name, 'aro')]";
    "//name[. = 'Alice']";
    "//name[. <= 'Bob']";
    "//city[contains(., 'Spring')]";
    "//nonexistent";
    "//person[nonexistent]";
    "//keyword[contains(., 'zzz')]";
    "/";
  ]

let queries_nested =
  [
    "//a";
    "//a//b";
    "//a/b";
    "//a//a";
    "//a//a//b";
    "//a[b]";
    "//a[.//b]/b";
    "//b[contains(., 'o')]";
    "//a[not(b)]";
    "//b";
    "//a/a/b";
  ]

let queries_mixed =
  [
    "//p";
    "//p[contains(., 'hello world')]";
    "//q[contains(., 'hello world')]";
    "//p[contains(., 'bold')]";
    "//p[. = 'plain']";
    "//p[@lang = 'en']";
    "//p[b]";
    "//p/text()";
    "//text()[contains(., 'hello')]";
    "//p[contains(text(), 'plain')]";
  ]

let unit_cases =
  List.concat
    [
      List.mapi
        (fun i q ->
          Alcotest.test_case (Printf.sprintf "site %d: %s" i q) `Quick (fun () ->
              check_query site_xml q))
        queries_site;
      List.mapi
        (fun i q ->
          Alcotest.test_case (Printf.sprintf "nested %d: %s" i q) `Quick (fun () ->
              check_query nested_xml q))
        queries_nested;
      List.mapi
        (fun i q ->
          Alcotest.test_case (Printf.sprintf "mixed %d: %s" i q) `Quick (fun () ->
              check_query mixed_xml q))
        queries_mixed;
    ]

(* ------------------------------------------------------------------ *)
(* Custom predicates                                                    *)
(* ------------------------------------------------------------------ *)

let test_custom_pred () =
  let funs = function
    | "LONGER:3" -> Some (Run.simple_fun (fun s -> String.length s > 3))
    | _ -> None
  in
  let dom_funs = function
    | "LONGER:3" -> Some (fun n -> String.length (Dom.string_value n) > 3)
    | _ -> None
  in
  check_query ~funs ~dom_funs site_xml "//name[LONGER(., '3')]";
  check_query ~funs ~dom_funs site_xml "//person[LONGER(name, '3')]"

(* ------------------------------------------------------------------ *)
(* Bottom-up strategy specifics                                         *)
(* ------------------------------------------------------------------ *)

let test_bottom_up_plan_shapes () =
  let doc = Document.of_xml site_xml in
  let has_plan q = Engine.bottom_up_plan (Engine.prepare doc q) <> None in
  Alcotest.(check bool) "selective contains" true (has_plan "//name[contains(., 'x')]");
  Alcotest.(check bool) "equality" true (has_plan "//city[. = 'Springfield']");
  Alcotest.(check bool) "text target" true (has_plan "//text()[contains(., 'x')]");
  (* keyword under listitem has an emph child somewhere: not PCDATA-only *)
  Alcotest.(check bool) "non-pcdata tag" false (has_plan "//keyword[contains(., 'x')]");
  Alcotest.(check bool) "intermediate filter" false
    (has_plan "//person[phone]/name[contains(., 'x')]");
  Alcotest.(check bool) "structural pred" false (has_plan "//person[name]");
  Alcotest.(check bool) "star target" false (has_plan "//*[contains(., 'x')]");
  Alcotest.(check bool) "attribute value" true (has_plan "//person[@id = 'p2']");
  Alcotest.(check bool) "attribute target" true (has_plan "//@id[starts-with(., 'p')]")

let test_auto_strategy_picks_bottom_up () =
  let doc = Document.of_xml site_xml in
  let c = Engine.prepare doc "//name[. = 'Bob']" in
  Alcotest.(check bool) "picks bottom-up" true (Engine.chosen_strategy c = `Bottom_up)

let test_strategy_forced_error () =
  let doc = Document.of_xml site_xml in
  let c = Engine.prepare doc "//person[name]" in
  Alcotest.check_raises "no bottom-up shape"
    (Invalid_argument "Engine: query has no bottom-up shape") (fun () ->
      ignore (Engine.count ~strategy:Engine.Bottom_up c))

(* ------------------------------------------------------------------ *)
(* Stats and optimization behaviour                                     *)
(* ------------------------------------------------------------------ *)

let test_jump_visits_less () =
  let doc = Document.of_xml site_xml in
  let c = Engine.prepare doc "//keyword" in
  let run_with jump =
    let stats = Run.fresh_stats () in
    let config = { (Run.default_config ()) with Run.enable_jump = jump; stats } in
    ignore (Engine.count ~config ~strategy:Engine.Top_down c);
    stats
  in
  let with_jump = run_with true and without = run_with false in
  Alcotest.(check bool) "fewer visits with jumping" true
    (with_jump.Run.visited < without.Run.visited);
  Alcotest.(check bool) "jumps recorded" true (with_jump.Run.jumps > 0)

let test_memo_hits () =
  let doc = Document.of_xml site_xml in
  (* //* now collects in O(1) without visiting; use a child chain *)
  let c = Engine.prepare doc "/site/people/person[phone]/name" in
  let stats = Run.fresh_stats () in
  let config = { (Run.default_config ()) with Run.stats = stats } in
  ignore (Engine.count ~config ~strategy:Engine.Top_down c);
  Alcotest.(check bool) "memo hits recorded" true (stats.Run.memo_hits > 0)

let test_union_queries () =
  let doc = Document.of_xml site_xml in
  let dom = Dom.of_xml site_xml in
  List.iter
    (fun q ->
      let expected =
        Naive_eval.eval_union_ids dom (Sxsi_xpath.Xpath_parser.parse_union q)
      in
      let got = Array.to_list (Engine.select_preorders (Engine.prepare doc q)) in
      if got <> expected then Alcotest.failf "union %s differs" q;
      Alcotest.(check int) (q ^ " count") (List.length expected)
        (Engine.count (Engine.prepare doc q)))
    [
      "//phone | //homepage";
      "//keyword | //listitem//keyword";        (* overlapping branches *)
      "//* | //person";                          (* subsumption *)
      "//name[. = 'Bob'] | //name[. = 'Alice'] | //nonexistent";
      "/site/people/person[phone]/name | //item";
    ]

let test_serialize_results () =
  let doc = Document.of_xml site_xml in
  let c = Engine.prepare doc "//keyword" in
  let buf = Buffer.create 64 in
  let n = Engine.serialize_to buf c in
  Alcotest.(check int) "three results" 3 n;
  Alcotest.(check string) "serialized"
    "<keyword>gold</keyword><keyword>deep<emph>e1</emph></keyword><keyword>top</keyword>"
    (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* String-value predicates on mixed content and the Medline battery     *)
(* ------------------------------------------------------------------ *)

(* Engine ids vs oracle ids on both tree backends, for the raw and the
   optimized automaton, run top-down and with the automatic strategy. *)
let check_backends xml queries =
  let dom = Dom.of_xml xml in
  List.iter
    (fun backend ->
      let doc = Document.of_xml ~backend xml in
      List.iter
        (fun q ->
          let expected = Naive_eval.eval_ids dom (parse q) in
          List.iter
            (fun optimize ->
              let c = Engine.prepare ~optimize doc q in
              let label strategy =
                Printf.sprintf "%s (%s, %s, %s)" q
                  (match backend with `Bp -> "bp" | `Grammar -> "grammar")
                  (if optimize then "optimized" else "raw")
                  strategy
              in
              Alcotest.(check (list int)) (label "top-down") expected
                (Array.to_list (Engine.select_preorders ~strategy:Engine.Top_down c));
              Alcotest.(check (list int)) (label "auto") expected
                (Array.to_list (Engine.select_preorders c));
              Alcotest.(check int) (label "count") (List.length expected)
                (Engine.count ~strategy:Engine.Top_down c))
            [ false; true ])
        queries)
    [ `Bp; `Grammar ]

(* Values that span several texts: an attribute inside a mixed element
   (which must not count toward the element's string-value), literals
   straddling text boundaries, literals longer than the value, and the
   empty literal. *)
let straddle_xml =
  "<r><m>ab<x k=\"1999\">cd</x>ef</m><m>19<x>99</x></m><m a=\"z\">19</m>\
   <e/><e></e><m>abc<x/>def</m></r>"

let straddle_queries =
  [
    "//m[contains(., '1999')]";
    "//*[contains(., '1999')]";
    "//*/*[contains(., '1999')]";
    "//x[contains(., '1999')]";
    "//@k[contains(., '1999')]";
    "//m[contains(., 'bcde')]";
    "//m[contains(., 'abcdef')]";
    "//m[contains(., 'cdef')]";
    "//m[contains(., 'abcdefg')]";
    "//x[contains(., 'cdefgh')]";
    "//m[starts-with(., 'abc')]";
    "//m[starts-with(., 'abcdefX')]";
    "//m[starts-with(., 'aba')]";
    "//m[ends-with(., 'def')]";
    "//m[ends-with(., 'Xabcdef')]";
    "//m[ends-with(., '9')]";
    "//m[. = 'abcdef']";
    "//m[. = '1999']";
    "//m[. = 'abcde']";
    "//m[. > 'abcdef']";
    "//m[. >= 'abcdef']";
    "//e[contains(., 'a')]";
    "//*[not(contains(., 'z'))]";
  ]

(* Predicates the empty value satisfies.  A forced bottom-up run starts
   from the matching texts, so it cannot find a node that has none;
   these stay out of [check_query]; the automatic strategy never runs
   them bottom-up. *)
let empty_value_queries =
  [
    "//m[. < 'aba']";
    "//m[. < 'abd']";
    "//m[. <= '1999']";
    "//*[contains(., '')]";
    "//*[starts-with(., '')]";
    "//*[ends-with(., '')]";
    "//e[. = '']";
  ]

let test_straddle_values () =
  List.iter (check_query straddle_xml) straddle_queries;
  check_backends straddle_xml (straddle_queries @ empty_value_queries)

(* The paper's Medline battery (Figs. 14/15). *)
let medline_battery =
  [
    "//Article[.//AbstractText[contains(., \"foot\") or contains(., \"feet\")]]";
    "//Article[.//AbstractText[contains(., \"plus\")]]";
    "//Article[.//AbstractText[contains(., \"plus\") or contains(., \"for\")]]";
    "//Article[.//AbstractText[contains(., \"plus\") and not(contains(., \"for\"))]]";
    "//MedlineCitation/Article/AuthorList/Author[./LastName[starts-with(., \"Bar\")]]";
    "//*[.//LastName[contains(., \"Nguyen\")]]";
    "//*//AbstractText[contains(., \"epididymis\")]";
    "//*[.//PublicationType[ends-with(., \"Article\")]]";
    "//MedlineCitation[.//Country[contains(., \"AUSTRALIA\")]]";
    "//MedlineCitation[contains(., \"blood cell\")]";
    "//*/*[contains(., \"1999\")]";
  ]

let medline_xml = lazy (Sxsi_datagen.Medline.generate ~citations:200 ())

let test_medline_battery () = check_backends (Lazy.force medline_xml) medline_battery

(* Structural bounds on M11 that need no timing.  Each sibling scan's
   frontier holds only the tags its parent can have as children, so
   [Tag_index] jumps stay within a small factor of the nodes the run
   visits; and the scan loops take the state-set table's lock once per
   scanning state, not once per probe. *)
let test_m11_structure () =
  let doc = Document.of_xml (Lazy.force medline_xml) in
  let c = Engine.prepare ~optimize:true doc "//*/*[contains(., \"1999\")]" in
  Engine.precompile c;
  let tr = Sxsi_obs.Trace.create ~label:"M11" () in
  ignore (Engine.count ~trace:tr ~strategy:Engine.Top_down c);
  let counter name = List.assoc name (Sxsi_obs.Trace.counters tr) in
  let visited = counter "visited" and jumps = counter "tag_jumps" in
  if visited = 0 || jumps > 2 * visited then
    Alcotest.failf "tag_jumps %d vs visited %d: more than 2x" jumps visited;
  let module C = Sxsi_obs.Contend in
  let acquires () =
    List.fold_left
      (fun acc (name, n, _, _) -> if name = "stateset.cons" then n else acc)
      0 (C.stats ())
  in
  let was = C.enabled () in
  C.set_enabled true;
  let before = acquires () in
  let n =
    Fun.protect
      ~finally:(fun () -> C.set_enabled was)
      (fun () -> Engine.count ~strategy:Engine.Top_down c)
  in
  let taken = acquires () - before in
  let states = List.length (Engine.automaton c).Sxsi_auto.Automaton.states in
  Alcotest.(check bool) "has results" true (n > 0);
  if taken > states then
    Alcotest.failf "stateset.cons taken %d times for %d states (visited %d)" taken states
      visited

(* ------------------------------------------------------------------ *)
(* Random documents x random queries vs the oracle                      *)
(* ------------------------------------------------------------------ *)

let tag_pool = [ "a"; "b"; "c"; "d" ]

let gen_xml : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let rec elem depth =
    let* name = oneofl tag_pool in
    let* attrs =
      frequency
        [ (3, return []); (1, map (fun v -> [ ("k", v) ]) (oneofl [ "u"; "v" ])) ]
    in
    let* kids =
      if depth >= 3 then return []
      else
        list_size (int_range 0 3)
          (frequency
             [
               (2, map (fun t -> `T t) (oneofl [ "x"; "yy"; "xyz"; "zz" ]));
               (3, map (fun e -> `E e) (elem (depth + 1)));
             ])
    in
    let buf = Buffer.create 64 in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    List.iter (fun (a, v) -> Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" a v)) attrs;
    if kids = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      List.iter
        (function `T t -> Buffer.add_string buf t | `E e -> Buffer.add_string buf e)
        kids;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end;
    return (Buffer.contents buf)
  in
  elem 0

let gen_query : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let test =
    frequency
      [
        (5, oneofl tag_pool);
        (1, return "*");
        (1, return "text()");
        (1, return "node()");
      ]
  in
  let pred =
    frequency
      [
        (3, map (fun t -> t) test);
        (2, map (fun t -> ".//" ^ t) test);
        ( 2,
          let* t = oneofl [ "."; "a"; "b" ] in
          (* "yx" and "zzx" only occur across two texts *)
          let* lit = oneofl [ "x"; "y"; "xyz"; ""; "yx"; "zzx" ] in
          let* f = oneofl [ "contains"; "starts-with"; "ends-with" ] in
          return (Printf.sprintf "%s(%s, \"%s\")" f t lit) );
        ( 1,
          let* t = oneofl [ "."; "a" ] in
          let* op = oneofl [ "="; "<"; ">=" ] in
          let* lit = oneofl [ "x"; "xyz"; "yyx" ] in
          return (Printf.sprintf "%s %s \"%s\"" t op lit) );
        (1, return "@k");
        (1, return "@k = \"u\"");
        (1, map (fun t -> Printf.sprintf "not(%s)" t) test);
        ( 1,
          let* a = test and* b = test in
          oneofl
            [ Printf.sprintf "%s and %s" a b; Printf.sprintf "%s or %s" a b ] );
      ]
  in
  let step =
    let* sep = oneofl [ "/"; "//" ] in
    let* axis = frequency [ (8, return ""); (1, return "following-sibling::") ] in
    let* t = test in
    let* p = frequency [ (3, return ""); (2, map (fun p -> "[" ^ p ^ "]") pred) ] in
    (* following-sibling cannot follow "//" in the parser's fragment *)
    let sep = if axis <> "" then "/" else sep in
    return (sep ^ axis ^ t ^ p)
  in
  let* n = int_range 1 3 in
  let* steps = list_repeat n step in
  let* first = step in
  (* guarantee the first step has no explicit axis after / *)
  let first =
    if String.length first > 1 && first.[1] = 'f' then "//a" else first
  in
  return (String.concat "" (first :: steps))

let prop_engine_vs_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"engine = oracle on random doc x query"
       ~print:(fun (xml, query) -> Printf.sprintf "xml: %s\nquery: %s" xml query)
       QCheck2.Gen.(pair gen_xml gen_query)
       (fun (xml, query) ->
      let doc = Document.of_xml xml in
      let dom = Dom.of_xml xml in
      let path = parse query in
      let expected = Naive_eval.eval_ids dom path in
      let c = Engine.prepare_path doc path in
      let td =
        Array.to_list (Engine.select_preorders ~strategy:Engine.Top_down c)
      in
      let auto = Array.to_list (Engine.select_preorders c) in
      let naive_cfg =
        {
          (Run.default_config ()) with
          Run.enable_jump = false;
          enable_memo = false;
          enable_early = false;
        }
      in
      let naive =
        Array.to_list
          (Engine.select_preorders ~config:naive_cfg ~strategy:Engine.Top_down c)
      in
      let cnt = Engine.count ~strategy:Engine.Top_down c in
      td = expected && auto = expected && naive = expected
      && cnt = List.length expected))

let suite =
  ( "engine",
    unit_cases
    @ [
        Alcotest.test_case "custom predicate" `Quick test_custom_pred;
        Alcotest.test_case "bottom-up plan shapes" `Quick test_bottom_up_plan_shapes;
        Alcotest.test_case "auto picks bottom-up" `Quick
          test_auto_strategy_picks_bottom_up;
        Alcotest.test_case "forced strategy error" `Quick test_strategy_forced_error;
        Alcotest.test_case "jumping visits fewer nodes" `Quick test_jump_visits_less;
        Alcotest.test_case "memoization hits" `Quick test_memo_hits;
        Alcotest.test_case "serialize results" `Quick test_serialize_results;
        Alcotest.test_case "union queries" `Quick test_union_queries;
        Alcotest.test_case "mixed-content string values" `Quick test_straddle_values;
        Alcotest.test_case "medline battery" `Quick test_medline_battery;
        Alcotest.test_case "M11 jumps and locks" `Quick test_m11_structure;
        prop_engine_vs_oracle;
      ] )
