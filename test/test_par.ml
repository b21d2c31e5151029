(* The parallel substrate, locked down differentially: pool semantics
   and stress (exceptions across the pool boundary, nested fork_join,
   many small tasks), then the harness — a document built under a pool
   of any size must answer every query exactly like the sequentially
   built one (counts, preorders, serialized bytes).  Queries themselves
   always evaluate on one domain.  Rides along: rank/select
   block-boundary edge cases and the §6.6 strategy rule. *)

open Sxsi_core
open Sxsi_xml
open Sxsi_bits
module Pool = Sxsi_par.Pool

let qtest ?(count = 60) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

(* Shared pools: spawning domains per qcheck case would dominate the
   run time.  Never shut down mid-suite — later cases reuse them. *)
let pool1 = lazy (Pool.create ~name:"t1" ~domains:1 ())
let pool2 = lazy (Pool.create ~name:"t2" ~domains:2 ())
let pool4 = lazy (Pool.create ~name:"t4" ~domains:4 ())
let pools = [ pool1; pool2; pool4 ]

let () =
  at_exit (fun () ->
      List.iter
        (fun l -> if Lazy.is_val l then Pool.shutdown (Lazy.force l))
        pools)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                       *)
(* ------------------------------------------------------------------ *)

let test_pool_sizes () =
  Alcotest.(check int) "domains clamp to 1" 1
    (Pool.with_pool ~domains:0 (fun p -> Pool.size p));
  Alcotest.(check int) "size 1" 1 (Pool.size (Lazy.force pool1));
  Alcotest.(check int) "size 4" 4 (Pool.size (Lazy.force pool4))

let test_map_reduce_sum () =
  let arr = Array.init 10_000 (fun i -> i) in
  let expected = Array.fold_left ( + ) 0 arr in
  List.iter
    (fun l ->
      let p = Lazy.force l in
      Alcotest.(check int)
        (Printf.sprintf "sum at size %d" (Pool.size p))
        expected
        (Pool.map_reduce p (fun x -> x) ( + ) 0 arr);
      Alcotest.(check int) "sum, one chunk" expected
        (Pool.map_reduce p ~chunks:1 (fun x -> x) ( + ) 0 arr);
      Alcotest.(check int) "sum, odd chunking" expected
        (Pool.map_reduce p ~chunks:7 (fun x -> x) ( + ) 0 arr))
    pools

let test_map_reduce_order () =
  (* a non-commutative (but associative) combine: string concat must
     come out in index order at every pool size *)
  let arr = Array.init 257 string_of_int in
  let expected = Array.fold_left ( ^ ) "" arr in
  List.iter
    (fun l ->
      let p = Lazy.force l in
      Alcotest.(check string)
        (Printf.sprintf "concat at size %d" (Pool.size p))
        expected
        (Pool.map_reduce p ~chunks:13 (fun x -> x) ( ^ ) "" arr))
    pools

let test_map_array () =
  let arr = Array.init 1000 (fun i -> i) in
  let expected = Array.map (fun x -> x * x) arr in
  List.iter
    (fun l ->
      let p = Lazy.force l in
      Alcotest.(check (array int)) "order preserved" expected
        (Pool.map_array p (fun x -> x * x) arr);
      Alcotest.(check (array int)) "empty" [||] (Pool.map_array p (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 49 |]
        (Pool.map_array p (fun x -> x * x) [| 7 |]))
    pools

let test_parallel_range () =
  let p = Lazy.force pool4 in
  let n = 10_000 in
  let hits = Array.make n 0 in
  (* chunks are disjoint, so plain writes are race-free *)
  Pool.parallel_range p ~chunks:64 ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "each index covered exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_fork_join () =
  List.iter
    (fun l ->
      let p = Lazy.force l in
      Alcotest.(check (pair int string)) "both results" (1, "two")
        (Pool.fork_join p (fun () -> 1) (fun () -> "two"));
      (* nested fork_join: a little divide-and-conquer sum *)
      let rec sum lo hi =
        if hi - lo <= 8 then begin
          let s = ref 0 in
          for i = lo to hi - 1 do
            s := !s + i
          done;
          !s
        end
        else begin
          let mid = (lo + hi) / 2 in
          let a, b = Pool.fork_join p (fun () -> sum lo mid) (fun () -> sum mid hi) in
          a + b
        end
      in
      Alcotest.(check int) "nested fork_join" (1000 * 999 / 2) (sum 0 1000))
    pools

let test_many_small_tasks () =
  let p = Lazy.force pool4 in
  let promises = Array.init 2000 (fun i -> Pool.fork p (fun () -> i * 3)) in
  let results = Array.map (Pool.await p) promises in
  Alcotest.(check bool) "all resolved in order" true
    (Array.for_all (fun b -> b) (Array.mapi (fun i r -> r = i * 3) results));
  Alcotest.(check bool) "tasks counted" true (Pool.tasks_total p > 0);
  Alcotest.(check int) "queue drained" 0 (Pool.queue_depth p)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun l ->
      let p = Lazy.force l in
      (* through await *)
      let pr = Pool.fork p (fun () -> raise (Boom 7)) in
      (match Pool.await p pr with
      | _ -> Alcotest.fail "await must re-raise"
      | exception Boom 7 -> ());
      (* awaiting again re-raises again *)
      (match Pool.await p pr with
      | _ -> Alcotest.fail "second await must re-raise"
      | exception Boom 7 -> ());
      (* through map_array *)
      (match Pool.map_array p (fun x -> if x = 5 then raise (Boom x) else x)
               (Array.init 100 (fun i -> i)) with
      | _ -> Alcotest.fail "map_array must re-raise"
      | exception Boom 5 -> ());
      (* fork_join: g's failure surfaces; if both fail, f wins *)
      (match Pool.fork_join p (fun () -> 1) (fun () -> raise (Boom 2)) with
      | _ -> Alcotest.fail "fork_join must re-raise g"
      | exception Boom 2 -> ());
      (match Pool.fork_join p (fun () -> raise (Boom 1)) (fun () -> raise (Boom 2)) with
      | _ -> Alcotest.fail "fork_join must re-raise"
      | exception Boom 1 -> ());
      (* the pool survives all of the above *)
      Alcotest.(check int) "pool still works" 42
        (Pool.await p (Pool.fork p (fun () -> 42))))
    pools

let test_shutdown () =
  let p = Pool.create ~domains:2 () in
  Alcotest.(check int) "alive" 3 (Pool.await p (Pool.fork p (fun () -> 3)));
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  match Pool.fork p (fun () -> 0) with
  | _ -> Alcotest.fail "fork after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_with_pool_cleanup () =
  (* with_pool shuts down even when the body raises *)
  let leaked = ref None in
  (match
     Pool.with_pool ~domains:2 (fun p ->
         leaked := Some p;
         raise (Boom 9))
   with
  | () -> Alcotest.fail "body exception must escape"
  | exception Boom 9 -> ());
  match !leaked with
  | None -> Alcotest.fail "body never ran"
  | Some p -> (
    match Pool.fork p (fun () -> 0) with
    | _ -> Alcotest.fail "pool must be shut down"
    | exception Invalid_argument _ -> ())

let test_default_domains () =
  let old = Sys.getenv_opt "SXSI_DOMAINS" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SXSI_DOMAINS" (Option.value old ~default:""))
    (fun () ->
      let case v expect =
        Unix.putenv "SXSI_DOMAINS" v;
        Alcotest.(check int) ("SXSI_DOMAINS=" ^ v) expect (Pool.default_domains ())
      in
      case "3" 3;
      case "1" 1;
      case "0" 1;
      case "-4" 1;
      case "banana" 1;
      case "500" 128;
      case "" 1)

let test_pool_metrics () =
  let p = Lazy.force pool2 in
  ignore (Pool.map_array p ~chunks:8 (fun x -> x) (Array.init 64 (fun i -> i)));
  let e = Sxsi_obs.Exposition.create () in
  Pool.register_metrics p e;
  let text = Sxsi_obs.Exposition.render e in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("exposes " ^ name) true
        (let re = name ^ " " in
         let n = String.length re in
         String.split_on_char '\n' text
         |> List.exists (fun l -> String.length l >= n && String.sub l 0 n = re)))
    [ "sxsi_pool_tasks_total"; "sxsi_pool_steals_total"; "sxsi_pool_queue_depth";
      "sxsi_pool_domains" ];
  Alcotest.(check bool) "tasks gauge positive" true (Pool.tasks_total p > 0)

(* ------------------------------------------------------------------ *)
(* Differential harness: pool-built = sequentially built, observably     *)
(* ------------------------------------------------------------------ *)

(* One (xml, query) pair: the sequentially built document is the
   oracle; a document built under every pool size must reproduce its
   count, its preorder sequence and its serialized bytes. *)
let differential_ok xml query =
  let seq_doc = Document.of_xml xml in
  let c = Engine.prepare seq_doc query in
  let expected_ids = Array.to_list (Engine.select_preorders c) in
  let expected_count = Engine.count c in
  let expected_bytes =
    let buf = Buffer.create 256 in
    ignore (Engine.serialize_to buf c);
    Buffer.contents buf
  in
  List.for_all
    (fun l ->
      let p = Lazy.force l in
      let doc = Document.build ~pool:p xml in
      let cp = Engine.prepare doc query in
      let ids = Array.to_list (Engine.select_preorders cp) in
      let n = Engine.count cp in
      let bytes =
        let buf = Buffer.create 256 in
        ignore (Engine.serialize_to buf cp);
        Buffer.contents buf
      in
      ids = expected_ids && n = expected_count && bytes = expected_bytes)
    pools

let prop_differential =
  qtest ~count:80 "parallel = sequential on random doc x query"
    QCheck2.Gen.(pair Test_engine.gen_xml Test_engine.gen_query)
    (fun (xml, query) -> Printf.sprintf "xml: %s\nquery: %s" xml query)
    (fun (xml, query) -> differential_ok xml query)

(* A document big enough to cross every parallel build cutoff: the
   wavelet (32 KiB symbols), FM (64 KiB text) and tag-index (32 Ki
   nodes) paths. *)
let big_xml =
  lazy
    (let buf = Buffer.create (1 lsl 18) in
     Buffer.add_string buf "<root>";
     for i = 0 to 3999 do
       Buffer.add_string buf
         (Printf.sprintf
            "<item id=\"i%d\"><name>name%d</name><desc>payload number %d with some \
             text</desc>%s</item>"
            i i i
            (if i mod 7 = 0 then "<flag/>" else ""))
     done;
     Buffer.add_string buf "</root>";
     Buffer.contents buf)

let big_queries =
  [
    "//item";                              (* wide marking scan *)
    "//item[flag]";                        (* scan with predicate *)
    "//name[contains(., '9')]";            (* bottom-up, many hits *)
    "//item[name = 'name1234']";           (* bottom-up, selective *)
    "//desc[contains(., 'number 123 ')]";
    "/root/item/name";
    "//item[not(flag)]/name";
    "//nonexistent";
  ]

let test_big_document_differential () =
  let xml = Lazy.force big_xml in
  let seq_doc = Document.of_xml xml in
  let seq_root = Document.serialize seq_doc (Document.root seq_doc) in
  List.iter
    (fun l ->
      let p = Lazy.force l in
      let doc = Document.build ~pool:p xml in
      Alcotest.(check int)
        (Printf.sprintf "node count at size %d" (Pool.size p))
        (Document.node_count seq_doc) (Document.node_count doc);
      (* byte-for-byte identical tree + text indexes *)
      Alcotest.(check bool)
        (Printf.sprintf "serialized document at size %d" (Pool.size p))
        true
        (Document.serialize doc (Document.root doc) = seq_root);
      List.iter
        (fun q ->
          let cs = Engine.prepare seq_doc q and cp = Engine.prepare doc q in
          let expected = Engine.select_preorders cs in
          Alcotest.(check (array int))
            (Printf.sprintf "%s at size %d" q (Pool.size p))
            expected (Engine.select_preorders cp);
          Alcotest.(check int)
            (Printf.sprintf "%s count at size %d" q (Pool.size p))
            (Array.length expected) (Engine.count cp);
          let bytes c =
            let buf = Buffer.create 4096 in
            ignore (Engine.serialize_to buf c);
            Buffer.contents buf
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s bytes at size %d" q (Pool.size p))
            true (bytes cs = bytes cp))
        big_queries)
    pools

let test_big_document_strategies () =
  (* both forced strategies on a bottom-up-shaped query with thousands
     of matching texts, over a document built under every pool size *)
  let xml = Lazy.force big_xml in
  let q = "//name[contains(., '9')]" in
  let expected =
    Engine.select_preorders ~strategy:Engine.Top_down
      (Engine.prepare (Document.of_xml xml) q)
  in
  List.iter
    (fun l ->
      let p = Lazy.force l in
      let c = Engine.prepare (Document.build ~pool:p xml) q in
      Alcotest.(check bool) "query has the bottom-up shape" true
        (Engine.bottom_up_plan c <> None);
      Alcotest.(check (array int))
        (Printf.sprintf "top-down at size %d" (Pool.size p))
        expected
        (Engine.select_preorders ~strategy:Engine.Top_down c);
      Alcotest.(check (array int))
        (Printf.sprintf "bottom-up at size %d" (Pool.size p))
        expected
        (Engine.select_preorders ~strategy:Engine.Bottom_up c))
    pools

(* ------------------------------------------------------------------ *)
(* Satellite: rank/select at block boundaries                           *)
(* ------------------------------------------------------------------ *)

let boundary_positions len =
  List.sort_uniq compare
    (List.filter (fun i -> i >= 0 && i <= len) [ 0; 1; 63; 64; 65; 511; 512; 513; len - 1; len ])

let bitvec_patterns len =
  [
    ("all-zeros", fun _ -> false);
    ("all-ones", fun _ -> true);
    ("alternating", fun i -> i land 1 = 1);
    ("every-64th", fun i -> i mod 64 = 0);
    ("block-edges", fun i -> i mod 512 = 511);
  ]
  |> List.map (fun (name, f) -> (Printf.sprintf "%s/%d" name len, f))

let test_bitvec_boundaries () =
  List.iter
    (fun len ->
      List.iter
        (fun (name, f) ->
          let t = Bitvec.of_fun len f in
          let b = Bitvec.Builder.create () in
          for i = 0 to len - 1 do
            Bitvec.Builder.push b (f i)
          done;
          let t2 = Bitvec.Builder.finish b in
          Alcotest.(check int) (name ^ " length") len (Bitvec.length t);
          (* naive prefix counts at the boundary positions *)
          let ones = ref 0 in
          let expect = Array.make (len + 1) 0 in
          for i = 0 to len - 1 do
            expect.(i) <- !ones;
            if f i then incr ones
          done;
          expect.(len) <- !ones;
          List.iter
            (fun i ->
              Alcotest.(check int) (Printf.sprintf "%s rank1 %d" name i)
                expect.(i) (Bitvec.rank1 t i);
              Alcotest.(check int) (Printf.sprintf "%s rank0 %d" name i)
                (i - expect.(i)) (Bitvec.rank0 t i);
              Alcotest.(check int) (Printf.sprintf "%s builder rank1 %d" name i)
                expect.(i) (Bitvec.rank1 t2 i))
            (boundary_positions len);
          Alcotest.(check int) (name ^ " count") !ones (Bitvec.count t);
          (* select is rank's inverse at every set bit near a boundary *)
          for j = 0 to !ones - 1 do
            let pos = Bitvec.select1 t j in
            if List.mem pos (boundary_positions len) || j = 0 || j = !ones - 1 then begin
              Alcotest.(check bool) (Printf.sprintf "%s select1 %d is set" name j)
                true (Bitvec.get t pos);
              Alcotest.(check int) (Printf.sprintf "%s rank-select %d" name j) j
                (Bitvec.rank1 t pos)
            end
          done;
          let zeros = len - !ones in
          if zeros > 0 then begin
            let p0 = Bitvec.select0 t 0 and plast = Bitvec.select0 t (zeros - 1) in
            Alcotest.(check bool) (name ^ " select0 first") false (Bitvec.get t p0);
            Alcotest.(check bool) (name ^ " select0 last") false (Bitvec.get t plast)
          end;
          (* next1 over the boundaries *)
          List.iter
            (fun i ->
              if i < len then begin
                let rec naive j = if j >= len then -1 else if f j then j else naive (j + 1) in
                Alcotest.(check int) (Printf.sprintf "%s next1 %d" name i)
                  (naive i) (Bitvec.next1 t i)
              end)
            (boundary_positions len))
        (bitvec_patterns len))
    [ 1; 63; 64; 65; 511; 512; 513; 1500 ]

let test_sparse_boundaries () =
  let check_sparse name universe elems =
    let t = Sparse.of_sorted ~universe (Array.of_list elems) in
    Alcotest.(check int) (name ^ " length") (List.length elems) (Sparse.length t);
    List.iteri
      (fun i v ->
        Alcotest.(check int) (Printf.sprintf "%s get %d" name i) v (Sparse.get t i))
      elems;
    List.iter
      (fun i ->
        let expect_rank = List.length (List.filter (fun v -> v < i) elems) in
        Alcotest.(check int) (Printf.sprintf "%s rank %d" name i)
          expect_rank (Sparse.rank t i);
        Alcotest.(check bool) (Printf.sprintf "%s mem %d" name i)
          (List.mem i elems) (Sparse.mem t i);
        let expect_next = match List.filter (fun v -> v >= i) elems with
          | v :: _ -> v
          | [] -> -1
        in
        Alcotest.(check int) (Printf.sprintf "%s next %d" name i)
          expect_next (Sparse.next t i);
        let expect_prev =
          match List.rev (List.filter (fun v -> v < i) elems) with
          | v :: _ -> v
          | [] -> -1
        in
        Alcotest.(check int) (Printf.sprintf "%s prev %d" name i)
          expect_prev (Sparse.prev t i))
      (boundary_positions (universe - 1))
  in
  check_sparse "empty" 1024 [];
  check_sparse "edges" 1024 [ 0; 63; 64; 511; 512; 1023 ];
  check_sparse "first-only" 513 [ 0 ];
  check_sparse "last-only" 513 [ 512 ];
  check_sparse "dense-run" 600 (List.init 80 (fun i -> 480 + i));
  (match Sparse.of_sorted ~universe:10 [| 3; 3 |] with
  | _ -> Alcotest.fail "duplicate elements must raise"
  | exception Invalid_argument _ -> ());
  match Sparse.of_sorted ~universe:10 [| 10 |] with
  | _ -> Alcotest.fail "out-of-universe must raise"
  | exception Invalid_argument _ -> ()

let test_wavelet_boundaries () =
  let strings =
    [
      ("single-symbol", String.make 513 'a');
      ("two-symbols", String.init 600 (fun i -> if i mod 64 = 0 then 'b' else 'a'));
      ( "four-symbols",
        String.init 700 (fun i -> [| 'a'; 'b'; 'c'; 'd' |].(i * 31 mod 4)) );
      ("one-char", "z");
    ]
  in
  List.iter
    (fun (name, s) ->
      let len = String.length s in
      let t = Wavelet.of_string s in
      Alcotest.(check int) (name ^ " length") len (Wavelet.length t);
      let distinct = List.sort_uniq compare (List.init len (String.get s)) in
      List.iter
        (fun c ->
          let naive_rank i =
            let n = ref 0 in
            for j = 0 to i - 1 do
              if s.[j] = c then incr n
            done;
            !n
          in
          List.iter
            (fun i ->
              Alcotest.(check int)
                (Printf.sprintf "%s rank %c %d" name c i)
                (naive_rank i) (Wavelet.rank t c i))
            (boundary_positions len);
          let total = naive_rank len in
          Alcotest.(check int) (Printf.sprintf "%s count %c" name c) total
            (Wavelet.count t c);
          if total > 0 then
            List.iter
              (fun j ->
                let pos = Wavelet.select t c j in
                Alcotest.(check char) (Printf.sprintf "%s select %c %d" name c j) c
                  (Wavelet.access t pos);
                Alcotest.(check int)
                  (Printf.sprintf "%s rank-select %c %d" name c j)
                  j (Wavelet.rank t c pos))
              (List.sort_uniq compare [ 0; min 63 (total - 1); min 64 (total - 1); total - 1 ]))
        distinct;
      List.iter
        (fun i ->
          if i < len then
            Alcotest.(check char) (Printf.sprintf "%s access %d" name i) s.[i]
              (Wavelet.access t i))
        (boundary_positions len))
    strings

(* ------------------------------------------------------------------ *)
(* Satellite: the §6.6 strategy rule, as a property                     *)
(* ------------------------------------------------------------------ *)

(* An independent transcription of the selectivity rule: bottom-up iff
   the query has the shape, its predicate rejects the empty string, and
   the text index estimates fewer matches than the rarest named step
   tag occurs. *)
let expected_strategy doc c query =
  match Engine.bottom_up_plan c with
  | None -> `Top_down
  | Some plan ->
    if Bottom_up.matches_empty_value plan then `Top_down
    else begin
      let tc = Document.text doc in
      let estimate =
        match Bottom_up.pred_of plan with
        | Sxsi_auto.Automaton.Custom_pred _ -> 0
        | Sxsi_auto.Automaton.Text_pred (op, lit) -> (
          let open Sxsi_text in
          let open Sxsi_xpath.Ast in
          match op with
          | Contains -> Text_collection.global_count tc lit
          | Eq -> Text_collection.equals_count tc lit
          | Starts_with -> Text_collection.starts_with_count tc lit
          | Ends_with -> Text_collection.ends_with_count tc lit
          | Lt | Le -> Text_collection.less_equal_count tc lit
          | Gt | Ge ->
            Text_collection.doc_count tc - Text_collection.less_than_count tc lit)
      in
      let tree = Document.tree doc in
      let path = Sxsi_xpath.Xpath_parser.parse query in
      let min_tag =
        List.fold_left
          (fun acc (step : Sxsi_xpath.Ast.step) ->
            match step.test with
            | Sxsi_xpath.Ast.Name n -> (
              match Document.tag_id doc n with
              | Some tg -> min acc (Sxsi_tree.Tree_backend.count tree tg)
              | None -> 0)
            | Star | Text | Node -> acc)
          (Document.node_count doc) path.Sxsi_xpath.Ast.steps
      in
      if estimate < min_tag then `Bottom_up else `Top_down
    end

let strategy_queries =
  [
    "//a[contains(., \"x\")]";
    "//b[. = \"xyz\"]";
    "//c[starts-with(., \"z\")]";
    "//d[ends-with(., \"y\")]";
    "//a/b[contains(., \"y\")]";
    "//a//c[. = \"x\"]";
    "//a[contains(., \"\")]";     (* matches empty: must stay top-down *)
    "//text()[contains(., \"x\")]";
    "//a[b]";                       (* structural: no bottom-up shape *)
    "//a";
  ]

let prop_auto_matches_rule =
  qtest ~count:60 "Auto strategy = selectivity rule"
    QCheck2.Gen.(pair Test_engine.gen_xml (oneofl strategy_queries))
    (fun (xml, query) -> Printf.sprintf "xml: %s\nquery: %s" xml query)
    (fun (xml, query) ->
      let doc = Document.of_xml xml in
      let c = Engine.prepare doc query in
      let chosen = Engine.chosen_strategy c in
      let rule = expected_strategy doc c query in
      (* the choice follows the rule... *)
      chosen = rule
      (* ...and either forced strategy yields the same answer (forcing
         bottom-up is only sound when the plan exists and the predicate
         rejects the empty string) *)
      &&
      let td = Engine.select_preorders ~strategy:Engine.Top_down c in
      Engine.select_preorders c = td
      &&
      match Engine.bottom_up_plan c with
      | Some plan when not (Bottom_up.matches_empty_value plan) ->
        Engine.select_preorders ~strategy:Engine.Bottom_up c = td
      | _ -> true)

let suite =
  ( "par",
    [
      Alcotest.test_case "pool sizes" `Quick test_pool_sizes;
      Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
      Alcotest.test_case "map_reduce index order" `Quick test_map_reduce_order;
      Alcotest.test_case "map_array" `Quick test_map_array;
      Alcotest.test_case "parallel_range covers once" `Quick test_parallel_range;
      Alcotest.test_case "fork_join and nesting" `Quick test_fork_join;
      Alcotest.test_case "many small tasks" `Quick test_many_small_tasks;
      Alcotest.test_case "exceptions cross the pool" `Quick test_exception_propagation;
      Alcotest.test_case "shutdown" `Quick test_shutdown;
      Alcotest.test_case "with_pool cleans up" `Quick test_with_pool_cleanup;
      Alcotest.test_case "SXSI_DOMAINS parsing" `Quick test_default_domains;
      Alcotest.test_case "pool metrics" `Quick test_pool_metrics;
      prop_differential;
      Alcotest.test_case "big document differential" `Slow
        test_big_document_differential;
      Alcotest.test_case "big document forced strategies" `Slow
        test_big_document_strategies;
      Alcotest.test_case "bitvec block boundaries" `Quick test_bitvec_boundaries;
      Alcotest.test_case "sparse boundaries" `Quick test_sparse_boundaries;
      Alcotest.test_case "wavelet boundaries" `Quick test_wavelet_boundaries;
      prop_auto_matches_rule;
    ] )
