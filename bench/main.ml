(* Benchmark harness regenerating every table and figure of the
   paper's evaluation section (§6) over the synthetic corpora.

   Usage:  dune exec bench/main.exe -- [section ...] [options]
   Sections: fig8 table2 table3 table4 table5 table6 fig10 fig11 fig12
             fig13 fig15 table7 fig18 streaming service par qos obs
             prof xmark bechamel (default: all except bechamel)
   Options:  --fast (single timed run)  --runs N  --scale F
             --json (also write BENCH_<section>.json per section)
             --probe (xmark: keep index probes installed while timing,
             to measure the instrumentation overhead)
             --profile (sample every section with the profiler and
             append a [profile] object to its BENCH json)

   Absolute numbers are machine- and substrate-dependent; the paper's
   reproduction targets are the SHAPES: which engine/strategy wins,
   by roughly what factor, and where cutoffs fall.  EXPERIMENTS.md
   records a reference run. *)

open Sxsi_xml
open Sxsi_core
open Sxsi_baseline
open Workloads
module H = Harness
module J = Sxsi_obs.Json

let parse_query = Sxsi_xpath.Xpath_parser.parse

(* ------------------------------------------------------------------ *)
(* Figure 8: indexing time / memory, index size vs document size       *)
(* ------------------------------------------------------------------ *)

(* Each row indexes its document with [sxsi index] in a fresh process,
   whose peak resident set is the paper's construction-memory row; then
   loads the saved index for the load time and the index sizes.  The
   build runs on one domain: there its peak repeats to within 1%, while
   with two the overlapping tree and text builds move it by up to 10%
   from run to run.  [sxsi] is the binary built next to this one. *)
let sxsi_exe () =
  let exe =
    List.fold_left Filename.concat (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "sxsi.exe" ]
  in
  if not (Sys.file_exists exe) then failwith (exe ^ " is missing: run dune build first");
  exe

let fig8 () =
  H.section "Figure 8: indexing XMark documents of growing size, and Medline";
  let exe = sxsi_exe () in
  let row (name, xml) =
    let xml_path = Filename.temp_file "sxsi" ".xml" and path = Filename.temp_file "sxsi" ".idx" in
    Fun.protect
      ~finally:(fun () -> Sys.remove xml_path; Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin xml_path (fun oc -> output_string oc xml);
        let t, peak = H.child_peak [| exe; "index"; xml_path; "-o"; path; "--domains"; "1" |] in
        let doc = Document.load path in
        let t_load = H.time (fun () -> Document.load path) in
        let tree = Document.tree_space_bits doc / 8 in
        let text = Sxsi_text.Text_collection.fm_space_bits (Document.text doc) / 8 in
        let size = String.length xml in
        let ratio = float_of_int peak /. float_of_int size in
        H.measure
          [
            ("row", J.String name);
            ("doc_bytes", J.Int size);
            ("peak_bytes", J.Int peak);
            ("peak_ratio", J.Float ratio);
            ("index_s", J.Float t);
          ];
        [
          name;
          H.pp_bytes size;
          Printf.sprintf "%.2fs" t;
          H.pp_bytes peak;
          Printf.sprintf "%.1f" ratio;
          H.pp_ms t_load;
          H.pp_bytes tree;
          H.pp_bytes text;
          Printf.sprintf "%.2f" (float_of_int (tree + text) /. float_of_int size);
        ])
  in
  let xmark scale () =
    let scale = scaled scale in
    (Printf.sprintf "xmark-%d" scale, Sxsi_datagen.Xmark.generate ~scale ())
  in
  let medline () =
    let citations = scaled 8000 in
    (Printf.sprintf "medline-%d" citations, Sxsi_datagen.Medline.generate ~citations ())
  in
  let rows =
    List.map (fun gen -> row (gen ())) (List.map xmark [ 400; 800; 1600; 3200; 6400 ] @ [ medline ])
  in
  H.table
    [
      "document"; "doc size"; "index time"; "build peak"; "peak/doc"; "load time";
      "tree index"; "FM index"; "index/doc";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Tables II and III: raw FM-index search times                        *)
(* ------------------------------------------------------------------ *)

let fm_table ~sample_rate () =
  H.section
    (Printf.sprintf
       "Table %s: FM-index search times over the Medline text collection (l = %d)"
       (if sample_rate = 64 then "II" else "III")
       sample_rate);
  let c = Lazy.force medline in
  let texts = Document.texts (Lazy.force c.doc) in
  let module TC = Sxsi_text.Text_collection in
  let tc = TC.build ~sample_rate texts in
  let name = function TC.Fm_locate -> "locate" | TC.Plain_scan -> "scan" in
  let rows =
    List.map
      (fun p ->
        let gc, gt = H.time_with_result (fun () -> TC.global_count tc p) in
        let ids, ct = H.time_with_result (fun () -> TC.contains_via tc TC.Fm_locate p) in
        let st = H.time (fun () -> TC.contains_via tc TC.Plain_scan p) in
        let rule = TC.contains_strategy tc p in
        H.measure
          [
            ("pattern", J.String p);
            ("sample_rate", J.Int sample_rate);
            ("global_count", J.Int gc);
            ("locate_ms", J.Float (ct *. 1e3));
            ("scan_ms", J.Float (st *. 1e3));
            ("rule", J.String (name rule));
            ("faster", J.String (if ct <= st then "locate" else "scan"));
          ];
        [
          p; string_of_int gc; H.pp_ms gt; string_of_int (List.length ids); H.pp_ms ct;
          H.pp_ms st; name rule;
        ])
      (fm_patterns @ medline_literals)
  in
  H.table
    [ "pattern"; "GlobalCount"; "time"; "ContainsCount"; "FM time"; "plain scan"; "rule" ]
    rows;
  Printf.printf "FM-index: %s for %s of text\n"
    (H.pp_bytes (TC.fm_space_bits tc / 8))
    (H.pp_bytes (TC.total_length tc))

(* ------------------------------------------------------------------ *)
(* Table IV: construction times, pointer versus SXSI stores             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  H.section "Table IV: construction times, pointer vs SXSI tree store";
  let one (c : corpus) =
    let xml = c.xml in
    let t_parse =
      H.time (fun () ->
          Xml_parser.parse
            ~on_open:(fun _ _ -> ())
            ~on_close:(fun _ -> ())
            ~on_text:(fun _ -> ())
            xml)
    in
    let t_pointers = H.time (fun () -> Dom.of_xml xml) in
    (* parentheses alone *)
    let t_parens =
      H.time (fun () ->
          let b = Sxsi_tree.Bp.Builder.create () in
          Sxsi_tree.Bp.Builder.open_node b;
          Xml_parser.parse
            ~on_open:(fun _ attrs ->
              Sxsi_tree.Bp.Builder.open_node b;
              List.iter
                (fun _ ->
                  Sxsi_tree.Bp.Builder.open_node b;
                  Sxsi_tree.Bp.Builder.close_node b)
                attrs)
            ~on_close:(fun _ -> Sxsi_tree.Bp.Builder.close_node b)
            ~on_text:(fun _ -> ())
            xml;
          Sxsi_tree.Bp.Builder.close_node b;
          ignore (Sxsi_tree.Bp.Builder.finish b))
    in
    (* tag index alone, over the already-built parentheses (rebuilt from
       the backend-neutral tree so this phase benches regardless of the
       document's backend) *)
    let doc = Lazy.force c.doc in
    let tree = Document.tree doc in
    let bp =
      Sxsi_tree.Bp.of_bools
        (Array.init (Sxsi_tree.Tree_backend.length tree)
           (Sxsi_tree.Tree_backend.is_open tree))
    in
    let tags = Array.init (Sxsi_tree.Bp.length bp) (fun i -> Document.tag_of doc i) in
    let t_tags =
      H.time (fun () ->
          Sxsi_tree.Tag_index.build bp ~tag_count:(Document.tag_count doc) ~tags)
    in
    let texts = Document.texts doc in
    let t_fm = H.time (fun () -> Sxsi_text.Text_collection.build ~store_plain:false texts) in
    let t_full = H.time (fun () -> Document.of_xml xml) in
    [
      c.name;
      H.pp_bytes (String.length xml);
      H.pp_ms t_parse;
      H.pp_ms t_pointers;
      H.pp_ms t_parens;
      H.pp_ms t_tags;
      H.pp_ms t_fm;
      H.pp_ms t_full;
    ]
  in
  H.table
    [ "corpus"; "size"; "parse"; "pointers"; "parens"; "tags"; "FM build"; "full index" ]
    (List.map one [ Lazy.force xmark_small; Lazy.force treebank; Lazy.force medline ])

(* ------------------------------------------------------------------ *)
(* Table V: full traversals                                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  H.section "Table V: full traversal, pointer vs succinct tree";
  let one (c : corpus) =
    let doc = Lazy.force c.doc and dom = Lazy.force c.dom in
    let tree = Document.tree doc in
    let t_pointer = H.time (fun () -> Dom.count_all_nodes dom) in
    let rec sxsi_count x acc =
      if x = Document.nil then acc
      else
        sxsi_count (Sxsi_tree.Tree_backend.next_sibling tree x)
          (sxsi_count (Sxsi_tree.Tree_backend.first_child tree x) (acc + 1))
    in
    let t_sxsi = H.time (fun () -> sxsi_count (Document.root doc) 0) in
    let rec elem_count x acc =
      if x = Document.nil then acc
      else
        elem_count (Sxsi_tree.Tree_backend.next_sibling tree x)
          (elem_count (Sxsi_tree.Tree_backend.first_child tree x)
             (if Document.is_element doc x then acc + 1 else acc))
    in
    let t_elem = H.time (fun () -> elem_count (Document.root doc) 0) in
    let star = Engine.prepare doc "//*" in
    let t_star = H.time (fun () -> Engine.count ~strategy:Engine.Top_down star) in
    [
      c.name;
      string_of_int (Document.node_count doc);
      H.pp_ms t_pointer;
      H.pp_ms t_sxsi;
      Printf.sprintf "%.1fx" (t_sxsi /. t_pointer);
      H.pp_ms t_elem;
      H.pp_ms t_star;
    ]
  in
  H.table
    [ "corpus"; "nodes"; "pointer rec."; "SXSI rec."; "ratio"; "elem rec."; "//* (count)" ]
    (List.map one [ Lazy.force xmark_small; Lazy.force treebank; Lazy.force medline ])

(* ------------------------------------------------------------------ *)
(* Table VI: tagged traversals                                          *)
(* ------------------------------------------------------------------ *)

let table6 () =
  H.section "Table VI: tagged traversals over XMark (jump loop vs automaton)";
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  let tree = Document.tree doc in
  let rows =
    List.filter_map
      (fun tag_name ->
        match Document.tag_id doc tag_name with
        | None -> None
        | Some tg ->
          let t_jump =
            H.time (fun () ->
                let count = ref 0 and p = ref 0 in
                let rec go () =
                  let q = Sxsi_tree.Tree_backend.tagged_next tree !p tg in
                  if q >= 0 then begin
                    incr count;
                    p := q + 1;
                    go ()
                  end
                in
                go ();
                !count)
          in
          let q = Engine.prepare doc ("//" ^ tag_name) in
          let n, t_count =
            H.time_with_result (fun () -> Engine.count ~strategy:Engine.Top_down q)
          in
          let t_mat = H.time (fun () -> Engine.select ~strategy:Engine.Top_down q) in
          Some
            [
              tag_name;
              string_of_int n;
              H.pp_ms t_jump;
              H.pp_ms t_count;
              H.pp_ms t_mat;
            ])
      [ "category"; "date"; "listitem"; "keyword" ]
  in
  H.table [ "tag"; "#nodes"; "jump loop"; "//tag (count)"; "//tag (mat)" ] rows

(* ------------------------------------------------------------------ *)
(* Figures 10/11: query batteries, SXSI vs the pointer baseline         *)
(* ------------------------------------------------------------------ *)

let query_battery title (c : corpus) queries =
  H.section title;
  let doc = Lazy.force c.doc and dom = Lazy.force c.dom in
  Printf.printf "corpus %s: %s, %d nodes\n" c.name
    (H.pp_bytes (String.length c.xml))
    (Document.node_count doc);
  let rows =
    List.map
      (fun (id, q) ->
        let cq = Engine.prepare doc q in
        let pq = parse_query q in
        let n, t_count = H.time_with_result (fun () -> Engine.count cq) in
        let nb, tb_count = H.time_with_result (fun () -> Naive_eval.eval_count dom pq) in
        let t_mat = H.time (fun () -> Engine.select cq) in
        let serializable = n <= 200_000 in
        let t_ser =
          if serializable then
            H.time (fun () -> H.serialize_bytes doc (Engine.select cq))
          else infinity
        in
        let tb_ser =
          if serializable then
            H.time (fun () ->
                List.iter (fun nd -> ignore (Dom.serialize nd)) (Naive_eval.eval dom pq))
          else infinity
        in
        if n <> nb then
          Printf.printf "!! %s: engines disagree (%d vs %d)\n" id n nb;
        [
          id;
          string_of_int n;
          H.pp_ms t_count;
          H.pp_ms tb_count;
          Printf.sprintf "%.1fx" (tb_count /. t_count);
          H.pp_ms t_mat;
          (if serializable then H.pp_ms t_ser else "+++");
          (if serializable then H.pp_ms tb_ser else "+++");
        ])
      queries
  in
  H.table
    [
      "query"; "results"; "SXSI count"; "base count"; "speedup"; "SXSI mat";
      "SXSI mat+ser"; "base mat+ser";
    ]
    rows

let fig10 () =
  query_battery "Figure 10: XMark queries X01-X17 (small document)"
    (Lazy.force xmark_small) xmark_queries;
  query_battery "Figure 10: XMark queries X01-X17 (large document)"
    (Lazy.force xmark_large) xmark_queries

let fig11 () =
  query_battery "Figure 11: Treebank queries T01-T05" (Lazy.force treebank)
    treebank_queries

(* ------------------------------------------------------------------ *)
(* Figure 12: optimization ablation                                     *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  H.section "Figure 12: impact of jumping and memoization (counting, X01-X17)";
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  let run_with q jump memo early =
    let config =
      {
        Run.enable_jump = jump;
        enable_memo = memo;
        enable_early = early;
        stats = Run.fresh_stats ();
      }
    in
    H.time (fun () -> Engine.count ~config ~strategy:Engine.Top_down q)
  in
  let rows =
    List.map
      (fun (id, q) ->
        (* raw translation: the figure ablates the engine's own jumping
           and memoization, so the whole-query optimizer (which plants
           extra jump sets) is kept out of the comparison *)
        let cq = Engine.prepare ~optimize:false doc q in
        let naive = run_with cq false false false in
        let jump_only = run_with cq true false false in
        let memo_only = run_with cq false true false in
        let no_early = run_with cq true true false in
        let all_opt = run_with cq true true true in
        [
          id;
          H.pp_ms naive;
          H.pp_ms jump_only;
          H.pp_ms memo_only;
          H.pp_ms no_early;
          H.pp_ms all_opt;
          Printf.sprintf "%.0fx" (naive /. all_opt);
        ])
      xmark_queries
  in
  H.table
    [ "query"; "naive"; "jump only"; "memo only"; "jump+memo"; "+early eval"; "gain" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 13: memory use and node-visit precision                       *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  H.section "Figure 13: visited / marked / result nodes and memory (X01-X17)";
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  let rows =
    List.map
      (fun (id, q) ->
        (* unoptimized automaton: the paper's per-query visit counts *)
        let cq = Engine.prepare ~optimize:false doc q in
        let stats = Run.fresh_stats () in
        let config = { (Run.default_config ()) with Run.stats = stats } in
        Gc.compact ();
        let before = Gc.allocated_bytes () in
        let nodes = Engine.select ~config ~strategy:Engine.Top_down cq in
        let allocated = Gc.allocated_bytes () -. before in
        [
          id;
          string_of_int stats.Run.visited;
          string_of_int stats.Run.marked;
          string_of_int (Array.length nodes);
          string_of_int stats.Run.jumps;
          Printf.sprintf "%.1fMB" (allocated /. 1e6);
        ])
      xmark_queries
  in
  H.table [ "query"; "visited"; "marked"; "results"; "jumps"; "allocated" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 15 (and Figure 14's strategy column): Medline text queries    *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  H.section "Figure 15: Medline text queries M01-M11";
  let c = Lazy.force medline in
  let doc = Lazy.force c.doc and dom = Lazy.force c.dom in
  let rows =
    List.map
      (fun (id, q) ->
        let cq = Engine.prepare doc q in
        let strategy =
          match Engine.chosen_strategy cq with `Bottom_up -> "up" | `Top_down -> "down"
        in
        let n, t = H.time_with_result (fun () -> Engine.count cq) in
        let nb, tb = H.time_with_result (fun () -> Naive_eval.eval_count dom (parse_query q)) in
        if n <> nb then Printf.printf "!! %s: engines disagree (%d vs %d)\n" id n nb;
        let text_t, auto_t =
          match Engine.bottom_up_plan cq with
          | Some plan when strategy = "up" ->
            let tt, _ = Bottom_up.run_with_text_time doc plan in
            (H.pp_ms tt, H.pp_ms (max 0.0 (t -. tt)))
          | Some _ | None -> ("-", "-")
        in
        (* the deterministic ledger the CI gate compares *)
        let tr = Sxsi_obs.Trace.create ~label:id () in
        ignore (Engine.count ~trace:tr cq);
        let counter name =
          match List.assoc_opt name (Sxsi_obs.Trace.counters tr) with Some v -> v | None -> 0
        in
        H.measure
          [
            ("id", J.String id);
            ("strategy", J.String strategy);
            ("results", J.Int n);
            ("oracle_results", J.Int nb);
            ("visited", J.Int (counter "visited"));
            ("fm_locate_calls", J.Int (counter "fm_locate_calls"));
            ("ms", J.Float (t *. 1e3));
          ];
        [
          id; strategy; string_of_int n; H.pp_ms t; text_t; auto_t; H.pp_ms tb;
          Printf.sprintf "%.0fx" (tb /. t);
        ])
      medline_queries
  in
  H.table
    [ "query"; "strategy"; "results"; "SXSI"; "text part"; "auto part"; "baseline"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table VII: word-based text queries                                   *)
(* ------------------------------------------------------------------ *)

let table7 () =
  H.section "Table VII: word-based queries (word index plugged into SXSI)";
  let battery (c : corpus) queries =
    let doc = Lazy.force c.doc and dom = Lazy.force c.dom in
    let funs = ft_registry doc in
    let dom_funs = ft_dom_funs () in
    (* force the word index build outside the timings *)
    ignore (funs "ftcontains:warmup");
    List.map
      (fun (id, q) ->
        let cq = Engine.prepare doc q in
        let n, t = H.time_with_result (fun () -> Engine.count ~funs cq) in
        let nb, tb =
          H.time_with_result (fun () ->
              Naive_eval.eval_count ~funs:dom_funs dom (parse_query q))
        in
        if n <> nb then Printf.printf "!! %s: engines disagree (%d vs %d)\n" id n nb;
        [
          id; c.name; string_of_int n; H.pp_ms t; H.pp_ms tb;
          Printf.sprintf "%.0fx" (tb /. t);
        ])
      queries
  in
  H.table
    [ "query"; "corpus"; "results"; "SXSI+word idx"; "baseline scan"; "speedup" ]
    (battery (Lazy.force medline) word_queries_medline
    @ battery (Lazy.force wiki) word_queries_wiki)

(* ------------------------------------------------------------------ *)
(* Figure 18: PSSM queries over the bio corpus                          *)
(* ------------------------------------------------------------------ *)

let fig18 () =
  H.section "Figure 18: PSSM queries over gene-annotation XML";
  let c = Lazy.force bio in
  let doc = Lazy.force c.doc in
  let funs = Sxsi_bio.Pssm.registry Sxsi_bio.Pssm.sample_matrices in
  let texts = Document.texts doc in
  let rows =
    List.map
      (fun q ->
        let cq = Engine.prepare doc q in
        let n, total = H.time_with_result (fun () -> Engine.count ~funs cq) in
        (* the text phase alone: scan every text with the matrix *)
        let mname =
          (* the matrix name follows ", " in "PSSM(., M1)" *)
          let i = String.rindex q 'M' in
          String.sub q i 2
        in
        let m, thr =
          List.find
            (fun (m, _) -> Sxsi_bio.Pssm.name m = mname)
            Sxsi_bio.Pssm.sample_matrices
        in
        let text_t =
          H.time (fun () ->
              Array.iter (fun s -> ignore (Sxsi_bio.Pssm.matches m ~threshold:thr s)) texts)
        in
        [
          q; string_of_int n; H.pp_ms text_t;
          H.pp_ms (max 0.0 (total -. text_t)); H.pp_ms total;
        ])
      pssm_queries
  in
  H.table [ "query"; "results"; "text"; "auto"; "total" ] rows;
  (* index size: character FM vs run-length FM on the repetitive texts *)
  let fm = Sxsi_fm.Fm_index.build texts in
  let rle = Sxsi_bio.Rle_fm.build texts in
  H.table
    [ "index"; "size"; "runs/symbols" ]
    [
      [ "FM-index"; H.pp_bytes (Sxsi_fm.Fm_index.space_bits fm / 8); "-" ];
      [
        "RLCSA (run-length)";
        H.pp_bytes (Sxsi_bio.Rle_fm.space_bits rle / 8);
        Printf.sprintf "%.3f"
          (float_of_int (Sxsi_bio.Rle_fm.run_count rle)
          /. float_of_int (Sxsi_bio.Rle_fm.length rle));
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Introduction claim: in-memory indexed evaluation vs streaming        *)
(* ------------------------------------------------------------------ *)

let streaming () =
  H.section "Intro: indexed (SXSI) vs one-pass streaming evaluation";
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  Printf.printf "document: %s (streaming re-parses it per query)\n"
    (H.pp_bytes (String.length c.xml));
  let rows =
    List.map
      (fun q ->
        let path = parse_query q in
        let cq = Engine.prepare doc q in
        let n, t_idx = H.time_with_result (fun () -> Engine.count cq) in
        let ns, t_str = H.time_with_result (fun () -> Stream_eval.count c.xml path) in
        if n <> ns then Printf.printf "!! %s: %d vs %d\n" q n ns;
        [
          q; string_of_int n; H.pp_ms t_idx; H.pp_ms t_str;
          Printf.sprintf "%.0fx" (t_str /. t_idx);
        ])
      [
        "//keyword"; "//listitem//keyword"; "/site/people/person/name";
        "//emph"; "//text()"; "//@id";
      ]
  in
  H.table [ "query"; "results"; "SXSI (indexed)"; "streaming"; "speedup" ] rows

(* ------------------------------------------------------------------ *)
(* Service throughput: N client domains x M cached queries              *)
(* ------------------------------------------------------------------ *)

let service () =
  H.section
    "Service throughput over TCP: N depth-1 clients x M queries (evloop front end)";
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  let queries =
    Array.of_list (List.map (fun (_, q) -> "COUNT bench " ^ q) xmark_queries)
  in
  let m = Array.length queries in
  (* a fresh server per cell: the event-driven front end over one
     shard, on an ephemeral port, stopped and joined after the cell *)
  let with_server ~cache f =
    let options =
      {
        Sxsi_service.Service.default_options with
        Sxsi_service.Service.compiled_cache = (if cache then 256 else 0);
        count_cache = (if cache then 4096 else 0);
      }
    in
    let svc = Sxsi_service.Service.create ~options () in
    Sxsi_service.Service.add_document svc "bench" doc;
    let stop = Atomic.make false in
    let port = Atomic.make 0 in
    let srv =
      Domain.spawn (fun () ->
          Sxsi_service.Ev_server.serve ~port:0
            ~on_listen:(fun p -> Atomic.set port p)
            ~stop:(fun () -> Atomic.get stop)
            (Sxsi_service.Shards.of_service svc))
    in
    while Atomic.get port = 0 do Thread.yield () done;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join srv;
        Sxsi_service.Service.shutdown svc)
      (fun () -> f (Atomic.get port) svc)
  in
  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    (* depth-1 RPC over loopback: never wait for Nagle *)
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  in
  let exchange ic oc line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | exception End_of_file -> false
    | l when l = "DATA" ->
      let rec drain () = if input_line ic <> "." then drain () in
      drain ();
      true
    | _ -> true
  in
  (* N clients, one OS thread each, request/response at pipeline depth
     1: on one core, rising throughput with N comes from the loop
     batching many connections per turn, not from parallelism *)
  let run_clients ~clients ~window port =
    let started = Atomic.make false in
    let stop = Atomic.make false in
    let counts = Array.make clients 0 in
    let ready = Atomic.make 0 in
    let threads =
      List.init clients (fun i ->
          Thread.create
            (fun () ->
              let fd = connect port in
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              Fun.protect
                ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () ->
                  Atomic.incr ready;
                  while not (Atomic.get started) do
                    Thread.yield ()
                  done;
                  let j = ref (i * 3) in
                  while not (Atomic.get stop) do
                    let q = queries.(!j mod m) in
                    incr j;
                    if exchange ic oc q then counts.(i) <- counts.(i) + 1
                    else Atomic.set stop true
                  done))
            ())
    in
    while Atomic.get ready < clients do Thread.yield () done;
    let t0 = Unix.gettimeofday () in
    Atomic.set started true;
    Thread.delay window;
    Atomic.set stop true;
    let t1 = Unix.gettimeofday () in
    List.iter Thread.join threads;
    float_of_int (Array.fold_left ( + ) 0 counts) /. (t1 -. t0)
  in
  let run ~clients ~cache =
    with_server ~cache (fun port svc ->
        (* warm over the wire so the window measures steady-state *)
        let fd = connect port in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Array.iter (fun q -> ignore (exchange ic oc q : bool)) queries;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let qps = run_clients ~clients ~window:0.5 port in
        let stat key =
          match List.assoc_opt key (Sxsi_service.Service.stats svc) with
          | Some v -> float_of_string v
          | None -> 0.0
        in
        let hits = stat "compiled_hits" and misses = stat "compiled_misses" in
        let hit_rate =
          if hits +. misses > 0.0 then 100.0 *. hits /. (hits +. misses) else 0.0
        in
        (qps, hit_rate))
  in
  Printf.printf "corpus %s: %d queries, window 0.5s per cell, depth-1 TCP clients\n"
    c.name m;
  let rows =
    List.map
      (fun clients ->
        let qps_on, hits_on = run ~clients ~cache:true in
        let qps_off, hits_off = run ~clients ~cache:false in
        H.measure
          [
            ("clients", J.Int clients);
            ("queries", J.Int m);
            ("qps_cache_on", J.Float qps_on);
            ("hit_rate_cache_on", J.Float hits_on);
            ("qps_cache_off", J.Float qps_off);
            ("hit_rate_cache_off", J.Float hits_off);
          ];
        [
          string_of_int clients;
          H.pp_rate qps_on;
          Printf.sprintf "%.0f%%" hits_on;
          H.pp_rate qps_off;
          Printf.sprintf "%.0f%%" hits_off;
          Printf.sprintf "%.1fx" (qps_on /. qps_off);
        ])
      [ 1; 4; 16; 64 ]
  in
  H.table
    [ "clients"; "cache on"; "hit rate"; "cache off"; "hit rate"; "cached gain" ]
    rows

(* ------------------------------------------------------------------ *)
(* Parallel substrate: index build time vs pool size                    *)
(* ------------------------------------------------------------------ *)

(* Queries evaluate on one domain, so the pool's only in-process use
   is index construction: time the build at each pool size and report
   how busy each worker was while it ran. *)
let par () =
  H.section "Parallel substrate: index build time vs domain count";
  let c = Lazy.force xmark_small in
  let xml = c.xml in
  Printf.printf "corpus %s: %s source\n" c.name (H.pp_bytes (String.length xml));
  let with_pool d f =
    if d <= 1 then f None
    else Sxsi_par.Pool.with_pool ~name:"bench" ~domains:d (fun p -> f (Some p))
  in
  let seq_build = ref 0.0 in
  let rows =
    List.map
      (fun d ->
        with_pool d @@ fun pool ->
        let stats0 =
          match pool with Some p -> Sxsi_par.Pool.worker_stats p | None -> []
        in
        let t0 = Unix.gettimeofday () in
        let _doc, t_build = H.time_with_result (fun () -> Document.build ?pool xml) in
        let window_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        if d = 1 then seq_build := t_build;
        let workers =
          match pool with
          | None -> []
          | Some p ->
            List.map2
              (fun (slot, busy, steals, parks) (_, busy0, steals0, parks0) ->
                (slot, float_of_int (busy - busy0) /. window_ns, steals - steals0,
                 parks - parks0))
              (Sxsi_par.Pool.worker_stats p) stats0
        in
        let mean_util =
          match workers with
          | [] -> None
          | ws ->
            Some
              (List.fold_left (fun acc (_, u, _, _) -> acc +. u) 0.0 ws
              /. float_of_int (List.length ws))
        in
        H.measure
          [
            ("domains", J.Int d);
            ("build_s", J.Float t_build);
            ("build_speedup", J.Float (!seq_build /. t_build));
            ( "workers",
              J.List
                (List.map
                   (fun (slot, u, steals, parks) ->
                     J.Obj
                       [
                         ("slot", J.Int slot);
                         ("utilization", J.Float u);
                         ("steals", J.Int steals);
                         ("parks", J.Int parks);
                       ])
                   workers) );
          ];
        [
          string_of_int d;
          H.pp_ms t_build;
          Printf.sprintf "%.2fx" (!seq_build /. t_build);
          (match mean_util with
          | Some u -> Printf.sprintf "%.0f%%" (100.0 *. u)
          | None -> "-");
        ])
      [ 1; 2; 4 ]
  in
  H.table [ "domains"; "build"; "build speedup"; "mean worker utilization" ] rows

(* ------------------------------------------------------------------ *)
(* Tree backends: Bp vs grammar-compressed, space and query throughput  *)
(* ------------------------------------------------------------------ *)

(* The comparison the pluggable-backend subsystem exists for: on the
   repetitive logs corpus the grammar backend's tree structure should
   be several times smaller than Bp's, while query answers stay
   byte-identical (the test suite proves that part) at a bounded
   throughput cost.  On xmark — little structural repetition — the
   grammar buys little; the interesting number there is the slowdown. *)
let backend () =
  H.section "Tree backends: balanced parentheses vs grammar-compressed (SLP)";
  let one (c : corpus) queries =
    let xml = c.xml in
    let build backend = Document.of_xml ~backend xml in
    let bench backend =
      let doc, t_build = H.time_with_result (fun () -> build backend) in
      let tree_bytes = Sxsi_tree.Tree_backend.space_bits (Document.tree doc) / 8 in
      let compiled =
        Array.of_list (List.map (fun (_, q) -> Engine.prepare doc q) queries)
      in
      let m = Array.length compiled in
      let cursor = ref 0 in
      let count_qps =
        H.throughput (fun () ->
            let j = !cursor in
            cursor := j + 1;
            Engine.count compiled.(j mod m))
      in
      cursor := 0;
      let select_qps =
        H.throughput (fun () ->
            let j = !cursor in
            cursor := j + 1;
            ignore (Engine.select compiled.(j mod m)))
      in
      (doc, t_build, tree_bytes, count_qps, select_qps)
    in
    let _, t_bp, bytes_bp, cq_bp, sq_bp = bench `Bp in
    let doc_g, t_g, bytes_g, cq_g, sq_g = bench `Grammar in
    let ratio = float_of_int bytes_bp /. float_of_int bytes_g in
    let slp = Sxsi_tree.Tree_backend.slp_exn (Document.tree doc_g) in
    H.measure
      [
        ("corpus", J.String c.name);
        ("tree_bytes_bp", J.Int bytes_bp);
        ("tree_bytes_grammar", J.Int bytes_g);
        ("space_ratio", J.Float ratio);
        ("build_s_bp", J.Float t_bp);
        ("build_s_grammar", J.Float t_g);
        ("count_qps_bp", J.Float cq_bp);
        ("count_qps_grammar", J.Float cq_g);
        ("select_qps_bp", J.Float sq_bp);
        ("select_qps_grammar", J.Float sq_g);
        ("grammar_rules", J.Int (Sxsi_grammar.Slp.rule_count slp));
        ("grammar_slots", J.Int (Sxsi_grammar.Slp.slot_count slp));
        ("grammar_depth", J.Int (Sxsi_grammar.Slp.depth_bound slp));
      ];
    [
      c.name;
      H.pp_bytes bytes_bp;
      H.pp_bytes bytes_g;
      Printf.sprintf "%.1fx" ratio;
      H.pp_rate cq_bp;
      H.pp_rate cq_g;
      H.pp_rate sq_bp;
      H.pp_rate sq_g;
    ]
  in
  let rows =
    [
      one (Lazy.force xmark_small) xmark_queries;
      one (Lazy.force logs) logs_queries;
    ]
  in
  H.table
    [
      "corpus"; "tree (bp)"; "tree (slp)"; "space gain"; "count/s (bp)";
      "count/s (slp)"; "select/s (bp)"; "select/s (slp)";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Budget-check overhead: the count path with governance off vs. on     *)
(* ------------------------------------------------------------------ *)

(* A budget generous enough never to trip: what this measures is the
   pure cost of the sampled checks riding in the hot loops (one
   fetch_and_add per step; clock reads every 1024th), not any
   enforcement.  The reproduction target is "disabled indistinguishable
   from before, enabled within ~2%". *)
let qos () =
  H.section "QoS: budget-check overhead on the XMark count workload";
  let c = Lazy.force xmark_small in
  let doc = Document.of_xml c.xml in
  let compiled =
    Array.of_list (List.map (fun (_, q) -> Engine.prepare doc q) xmark_queries)
  in
  Array.iter Engine.precompile compiled;
  let m = Array.length compiled in
  let qps_with budget =
    let cursor = ref 0 in
    H.throughput (fun () ->
        let j = !cursor in
        cursor := j + 1;
        Engine.count ?budget compiled.(j mod m))
  in
  let qps_off = qps_with None in
  let qps_on =
    qps_with
      (Some
         (Sxsi_qos.Budget.create ~deadline_ns:max_int ~max_steps:max_int
            ~max_results:max_int ~max_bytes:max_int ()))
  in
  let overhead_pct = (1.0 -. (qps_on /. qps_off)) *. 100.0 in
  H.measure
    [
      ("count_qps_budget_off", J.Float qps_off);
      ("count_qps_budget_on", J.Float qps_on);
      ("overhead_pct", J.Float overhead_pct);
      ( "qos_exceeded_total",
        J.Int (Sxsi_obs.Counter.get Sxsi_qos.Budget.exceeded_total) );
      ( "qos_deadline_exceeded_total",
        J.Int (Sxsi_obs.Counter.get Sxsi_qos.Budget.deadline_exceeded_total) );
      ( "qos_cancelled_chunks_total",
        J.Int (Sxsi_obs.Counter.get Sxsi_qos.Budget.cancelled_chunks_total) );
    ];
  H.table
    [ "budget"; "count"; "overhead" ]
    [
      [ "off"; H.pp_rate qps_off; "-" ];
      [ "on"; H.pp_rate qps_on; Printf.sprintf "%.2f%%" overhead_pct ];
    ]

(* ------------------------------------------------------------------ *)
(* Flight recorder overhead: the same count workload with the journal   *)
(* disabled (one atomic load per probe) and enabled (full recording)    *)
(* ------------------------------------------------------------------ *)

let obs () =
  H.section "Flight recorder: journal overhead on the XMark count workload";
  let c = Lazy.force xmark_small in
  let doc = Document.of_xml c.xml in
  let compiled =
    Array.of_list (List.map (fun (_, q) -> Engine.prepare doc q) xmark_queries)
  in
  Array.iter Engine.precompile compiled;
  let m = Array.length compiled in
  let qps_with enabled =
    Sxsi_obs.Journal.reset ();
    Sxsi_obs.Journal.set_enabled enabled;
    let cursor = ref 0 in
    Fun.protect
      ~finally:(fun () -> Sxsi_obs.Journal.set_enabled false)
      (fun () ->
        H.throughput (fun () ->
            let j = !cursor in
            cursor := j + 1;
            Engine.count compiled.(j mod m)))
  in
  let qps_off = qps_with false in
  let qps_on = qps_with true in
  let records = Sxsi_obs.Journal.records_total () in
  let dropped = Sxsi_obs.Journal.dropped_total () in
  let dump_bytes =
    String.length
      (Sxsi_obs.Json.to_string (Sxsi_obs.Journal.to_json (Sxsi_obs.Journal.snapshot ())))
  in
  Sxsi_obs.Journal.reset ();
  let overhead_pct = (1.0 -. (qps_on /. qps_off)) *. 100.0 in
  H.measure
    [
      ("count_qps_journal_off", J.Float qps_off);
      ("count_qps_journal_on", J.Float qps_on);
      ("overhead_pct", J.Float overhead_pct);
      ("journal_records_total", J.Int records);
      ("journal_dropped_total", J.Int dropped);
      ("journal_dump_bytes", J.Int dump_bytes);
    ];
  H.table
    [ "journal"; "count"; "overhead" ]
    [
      [ "off"; H.pp_rate qps_off; "-" ];
      [ "on"; H.pp_rate qps_on; Printf.sprintf "%.2f%%" overhead_pct ];
    ]

(* ------------------------------------------------------------------ *)
(* Sampling-profiler overhead: the same count workload with the         *)
(* profiler off (labels disabled, spans cost two atomic loads) and on   *)
(* (label slot maintenance + the sampler domain).  CI gates the         *)
(* overhead at 3%.                                                      *)
(* ------------------------------------------------------------------ *)

let prof () =
  H.section "Sampling profiler: overhead on the XMark count workload";
  let c = Lazy.force xmark_small in
  let doc = Document.of_xml c.xml in
  let compiled =
    Array.of_list (List.map (fun (_, q) -> Engine.prepare doc q) xmark_queries)
  in
  Array.iter Engine.precompile compiled;
  let m = Array.length compiled in
  let qps_run () =
    let cursor = ref 0 in
    H.throughput (fun () ->
        let j = !cursor in
        cursor := j + 1;
        Engine.count compiled.(j mod m))
  in
  let was_running = Sxsi_prof.Prof.running () in
  if was_running then Sxsi_prof.Prof.stop ();
  (* interleaved best-of-3: a single 0.5s window jitters by several
     percent (GC slices, frequency scaling), far more than the 3%
     overhead gate; the max over alternating off/on trials converges to
     each configuration's true peak rate and cancels slow drift *)
  let qps_off = ref 0.0 and qps_on = ref 0.0 in
  let since = Sxsi_prof.Prof.snapshot () in
  for _ = 1 to 3 do
    qps_off := Float.max !qps_off (qps_run ());
    Sxsi_prof.Prof.start ();
    qps_on := Float.max !qps_on (qps_run ());
    Sxsi_prof.Prof.stop ()
  done;
  let qps_off = !qps_off and qps_on = !qps_on in
  let report = Sxsi_prof.Prof.report ~since () in
  if was_running then Sxsi_prof.Prof.start ();
  let overhead_pct = (1.0 -. (qps_on /. qps_off)) *. 100.0 in
  let unattributed = Sxsi_prof.Prof.unattributed_pct report in
  H.measure
    [
      ("count_qps_profiler_off", J.Float qps_off);
      ("count_qps_profiler_on", J.Float qps_on);
      ("overhead_pct", J.Float overhead_pct);
      ("sampler_hz", J.Int report.Sxsi_prof.Prof.r_hz);
      ("sampler_ticks", J.Int report.Sxsi_prof.Prof.r_ticks);
      ("unattributed_pct", J.Float unattributed);
    ];
  H.table
    [ "profiler"; "count"; "overhead" ]
    [
      [ "off"; H.pp_rate qps_off; "-" ];
      [
        "on";
        H.pp_rate qps_on;
        Printf.sprintf "%.2f%% (%.1f%% unattributed)" overhead_pct unattributed;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* XMark per-query latency with trace-derived phase breakdown           *)
(* ------------------------------------------------------------------ *)

let probe_flag = ref false

(* The MATERIALIZE queries whose reply is the serialization: each goes
   through [Service.handle_line] and the wire rendering, as a served
   request does.  The bytes allocated per reply byte are deterministic
   once the output buffer is warm (one untimed request, as a server's
   is after its first reply); the least of three requests is recorded,
   so that a one-off growth of the profiler's own tables (--profile)
   is not charged to the request.  check_materialize_alloc.py gates
   the ratio at 2.0. *)
let materialize_queries = [ "X01"; "X02"; "X13" ]

let materialize_rows doc =
  let module S = Sxsi_service.Service in
  let svc =
    S.create ~options:{ S.default_options with compiled_cache = 0; count_cache = 0 } ()
  in
  Fun.protect ~finally:(fun () -> S.shutdown svc) @@ fun () ->
  S.add_document svc "bench" doc;
  let rows =
    List.map
      (fun id ->
        let q = List.assoc id xmark_queries in
        let reply () =
          Sxsi_service.Protocol.print_response (S.handle_line svc ("MATERIALIZE bench " ^ q))
        in
        ignore (reply ());
        let measured () =
          let a0 = Gc.allocated_bytes () in
          let wire = reply () in
          (Gc.allocated_bytes () -. a0, wire)
        in
        let alloc, wire = List.fold_left min (measured ()) [ measured (); measured () ] in
        let t = H.time reply in
        let serialized = H.serialize_bytes doc (Engine.select (Engine.prepare doc q)) in
        let per_byte = alloc /. float_of_int (String.length wire) in
        H.measure
          [
            ("id", J.String id);
            ("verb", J.String "MATERIALIZE");
            ("query", J.String q);
            ("reply_bytes", J.Int (String.length wire));
            ("serialized_bytes", J.Int serialized);
            ("alloc_bytes", J.Int (int_of_float alloc));
            ("alloc_per_reply_byte", J.Float per_byte);
            ("materialize_ns", J.Int (int_of_float (t *. 1e9)));
          ];
        [
          id; string_of_int (String.length wire); string_of_int serialized;
          Printf.sprintf "%.2f" per_byte; H.pp_ms t;
        ])
      materialize_queries
  in
  H.table [ "MATERIALIZE"; "reply bytes"; "serialized"; "alloc B/B"; "handle+render" ] rows

let xmark () =
  H.section
    (Printf.sprintf "XMark per-query latency and phase breakdown (X01-X17, probes %s)"
       (if !probe_flag then "on" else "off"));
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  (* --probe: keep live index probes installed during the timed loops,
     the worst case for instrumentation overhead (every FM and tag-jump
     call feeds the counters).  Default: the probes stay disabled, as
     in production, and the timed loops only pay the atomic-load
     check. *)
  if !probe_flag then begin
    Sxsi_fm.Fm_index.set_probe (Some (Sxsi_fm.Fm_index.create_probe ()));
    Sxsi_tree.Tag_index.set_probe (Some (Sxsi_tree.Tag_index.create_probe ()))
  end;
  Fun.protect
    ~finally:(fun () ->
      Sxsi_fm.Fm_index.set_probe None;
      Sxsi_tree.Tag_index.set_probe None)
    (fun () ->
      let rows =
        List.map
          (fun (id, q) ->
            let cq = Engine.prepare doc q in
            let n, t_count = H.time_with_result (fun () -> Engine.count cq) in
            let t_sel = H.time (fun () -> Engine.select cq) in
            (* Two traced evaluations through the full pipeline (fresh
               parse + compile): the optimized automaton for the phase
               breakdown, and the raw translation for the visited-node
               ledger — the off/on column pairs below. *)
            let traced optimize =
              let tr = Sxsi_obs.Trace.create ~label:id () in
              let cq' = Engine.prepare ~trace:tr ~optimize doc q in
              ignore (Engine.select_preorders ~trace:tr cq');
              tr
            in
            let tr = traced true in
            let tr_off = traced false in
            let phase p = Sxsi_obs.Trace.phase_ns tr p in
            let counter_of tr name =
              match List.assoc_opt name (Sxsi_obs.Trace.counters tr) with
              | Some v -> v
              | None -> 0
            in
            let counter = counter_of tr in
            H.measure
              [
                ("id", J.String id);
                ("query", J.String q);
                ("results", J.Int n);
                ("count_ns", J.Int (int_of_float (t_count *. 1e9)));
                ("select_ns", J.Int (int_of_float (t_sel *. 1e9)));
                ("probes_during_timing", J.Bool !probe_flag);
                ("visited_noopt", J.Int (counter_of tr_off "visited"));
                ("visited_opt", J.Int (counter "visited"));
                ("tag_jumps_noopt", J.Int (counter_of tr_off "tag_jumps"));
                ("tag_jumps_opt", J.Int (counter "tag_jumps"));
                ("opt_states_before", J.Int (counter "opt_states_before"));
                ("opt_states_after", J.Int (counter "opt_states_after"));
                ("opt_trans_before", J.Int (counter "opt_trans_before"));
                ("opt_trans_after", J.Int (counter "opt_trans_after"));
                ("opt_jump_tags", J.Int (counter "opt_jump_tags"));
                ("trace", Sxsi_obs.Trace.to_json tr);
              ];
            [
              id;
              string_of_int n;
              H.pp_ms t_count;
              H.pp_ms t_sel;
              H.pp_ms (float_of_int (phase Sxsi_obs.Trace.Run) /. 1e9);
              H.pp_ms (float_of_int (phase Sxsi_obs.Trace.Materialize) /. 1e9);
              string_of_int (counter_of tr_off "visited");
              string_of_int (counter "visited");
              string_of_int (counter_of tr_off "tag_jumps");
              string_of_int (counter "tag_jumps");
              string_of_int (counter "fm_search_calls");
            ])
          xmark_queries
      in
      H.table
        [
          "query"; "results"; "count"; "select"; "run phase"; "mat phase";
          "visited off"; "visited on"; "jumps off"; "jumps on"; "fm searches";
        ]
        rows;
      materialize_rows doc)

(* ------------------------------------------------------------------ *)
(* Bit kernels: rank/select/next1 microbench over a density x size      *)
(* grid, new broadword kernels vs the previous table-driven kernels     *)
(* (Bitvec_ref, a faithful snapshot).  Both arms run in the same        *)
(* process on the same vectors, so the speedup columns are             *)
(* machine-independent; the absolute ops/s feed the baseline diff.      *)
(* ------------------------------------------------------------------ *)

let bits () =
  H.section "Bit kernels: rank/select throughput, broadword vs previous kernels";
  let module B = Sxsi_bits.Bitvec in
  let module R = Sxsi_bits.Bitvec_ref in
  let rng = Random.State.make [| 0x5eed; 0xb17 |] in
  let batch = 4096 in
  (* each throughput call performs [batch] operations *)
  let mops per_call = per_call *. float_of_int batch /. 1e6 in
  let grid =
    [
      (65_536, 1024); (65_536, 64); (65_536, 2);
      (1_048_576, 1024); (1_048_576, 64); (1_048_576, 2);
    ]
  in
  Printf.printf
    "batch %d ops/call, window 0.5s per cell; density 1/k means every bit\n\
     is set with probability 1/k\n"
    batch;
  let rows =
    List.map
      (fun (n, inv_density) ->
        let bits = Array.init n (fun _ -> Random.State.int rng inv_density = 0) in
        let bv = B.of_fun n (fun i -> bits.(i)) in
        let old_bv = R.of_fun n (fun i -> bits.(i)) in
        let ones = B.count bv in
        let zeros = n - ones in
        let idx = Array.init batch (fun _ -> Random.State.int rng (n + 1)) in
        let pos = Array.init batch (fun _ -> Random.State.int rng n) in
        let j1 = Array.init batch (fun _ -> Random.State.int rng (max 1 ones)) in
        let j0 = Array.init batch (fun _ -> Random.State.int rng (max 1 zeros)) in
        let sink = ref 0 in
        let bench f = mops (H.throughput f) in
        let rank_new =
          bench (fun () ->
              for k = 0 to batch - 1 do
                sink := !sink + B.rank1 bv (Array.unsafe_get idx k)
              done)
        and rank_old =
          bench (fun () ->
              for k = 0 to batch - 1 do
                sink := !sink + R.rank1 old_bv (Array.unsafe_get idx k)
              done)
        in
        let sel1_new =
          if ones = 0 then 0.0
          else
            bench (fun () ->
                for k = 0 to batch - 1 do
                  sink := !sink + B.select1 bv (Array.unsafe_get j1 k)
                done)
        and sel1_old =
          if ones = 0 then 0.0
          else
            bench (fun () ->
                for k = 0 to batch - 1 do
                  sink := !sink + R.select1 old_bv (Array.unsafe_get j1 k)
                done)
        in
        let sel0_new =
          bench (fun () ->
              for k = 0 to batch - 1 do
                sink := !sink + B.select0 bv (Array.unsafe_get j0 k)
              done)
        and sel0_old =
          bench (fun () ->
              for k = 0 to batch - 1 do
                sink := !sink + R.select0 old_bv (Array.unsafe_get j0 k)
              done)
        in
        let next_new =
          bench (fun () ->
              for k = 0 to batch - 1 do
                sink := !sink + B.next1 bv (Array.unsafe_get pos k)
              done)
        and next_old =
          bench (fun () ->
              for k = 0 to batch - 1 do
                sink := !sink + R.next1 old_bv (Array.unsafe_get pos k)
              done)
        in
        ignore !sink;
        let speedup a b = if b > 0.0 then a /. b else 0.0 in
        H.measure
          [
            ("n_bits", J.Int n);
            ("inv_density", J.Int inv_density);
            ("ones", J.Int ones);
            ("space_bits", J.Int (B.space_bits bv));
            ("rank1_mops_new", J.Float rank_new);
            ("rank1_mops_old", J.Float rank_old);
            ("rank1_speedup", J.Float (speedup rank_new rank_old));
            ("select1_mops_new", J.Float sel1_new);
            ("select1_mops_old", J.Float sel1_old);
            ("select1_speedup", J.Float (speedup sel1_new sel1_old));
            ("select0_mops_new", J.Float sel0_new);
            ("select0_mops_old", J.Float sel0_old);
            ("select0_speedup", J.Float (speedup sel0_new sel0_old));
            ("next1_mops_new", J.Float next_new);
            ("next1_mops_old", J.Float next_old);
            ("next1_speedup", J.Float (speedup next_new next_old));
          ];
        [
          H.pp_bytes (n / 8);
          Printf.sprintf "1/%d" inv_density;
          Printf.sprintf "%.1fM" rank_new;
          Printf.sprintf "%.1fM" rank_old;
          Printf.sprintf "%.2fx" (speedup rank_new rank_old);
          Printf.sprintf "%.1fM" sel1_new;
          Printf.sprintf "%.1fM" sel1_old;
          Printf.sprintf "%.2fx" (speedup sel1_new sel1_old);
          Printf.sprintf "%.2fx" (speedup sel0_new sel0_old);
          Printf.sprintf "%.2fx" (speedup next_new next_old);
        ])
      grid
  in
  H.table
    [
      "size"; "density"; "rank1 new"; "rank1 old"; "rank1 x"; "sel1 new";
      "sel1 old"; "sel1 x"; "sel0 x"; "next1 x";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make group per table             *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  H.section "Bechamel micro-benchmarks (OLS ns/run)";
  let open Bechamel in
  let c = Lazy.force xmark_small in
  let doc = Lazy.force c.doc in
  let m = Lazy.force medline in
  let mdoc = Lazy.force m.doc in
  let tc = Document.text mdoc in
  let tree = Document.tree doc in
  let count q = Staged.stage (fun () -> Engine.count (Engine.prepare doc q)) in
  let tests =
    [
      Test.make_grouped ~name:"table2-fm"
        [
          Test.make ~name:"global_count[brain]"
            (Staged.stage (fun () -> Sxsi_text.Text_collection.global_count tc "brain"));
          Test.make ~name:"contains[morphine]"
            (Staged.stage (fun () -> Sxsi_text.Text_collection.contains tc "morphine"));
        ];
      Test.make_grouped ~name:"table5-traversal"
        [
          Test.make ~name:"subtree_size(root)"
            (Staged.stage (fun () -> Sxsi_tree.Tree_backend.subtree_size tree 0));
          Test.make ~name:"count //*" (count "//*");
        ];
      Test.make_grouped ~name:"fig10-queries"
        [
          Test.make ~name:"X04" (count "//listitem//keyword");
          Test.make ~name:"X08" (count "/site/people/person[phone or homepage]/name");
        ];
    ]
  in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 0.3) ~stabilize:false () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let bm = Benchmark.run cfg [ instance ] elt in
          let ols =
            Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
          in
          let est = Analyze.one ols instance bm in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "%-28s %12.0f ns/run\n" (Test.Elt.name elt) ns
          | _ -> Printf.printf "%-28s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests;
  flush stdout

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig8", fig8);
    ("table2", fm_table ~sample_rate:64);
    ("table3", fun () -> fm_table ~sample_rate:4 (); fm_table ~sample_rate:32 ());
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig15", fig15);
    ("table7", table7);
    ("fig18", fig18);
    ("bits", bits);
    ("streaming", streaming);
    ("service", service);
    ("par", par);
    ("backend", backend);
    ("qos", qos);
    ("obs", obs);
    ("prof", prof);
    ("xmark", xmark);
    ("bechamel", bechamel);
  ]

let () =
  let selected = ref [] in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      H.fast ();
      parse rest
    | "--runs" :: n :: rest ->
      H.runs := int_of_string n;
      parse rest
    | "--scale" :: f :: rest ->
      Workloads.scale_factor := float_of_string f;
      parse rest
    | "--json" :: rest ->
      H.json_enabled := true;
      parse rest
    | "--probe" :: rest ->
      probe_flag := true;
      parse rest
    | "--profile" :: rest ->
      H.profile_enabled := true;
      parse rest
    | name :: rest ->
      if List.mem_assoc name sections then selected := name :: !selected
      else begin
        Printf.eprintf "unknown section %s\n" name;
        exit 1
      end;
      parse rest
  in
  parse args;
  let to_run =
    match !selected with
    | [] -> List.filter (fun (n, _) -> n <> "bechamel") sections
    | l -> List.filter (fun (n, _) -> List.mem n l) sections
  in
  (* trace/phase timings use the same monotonic clock bechamel does *)
  Sxsi_obs.Clock.set_source (fun () -> Int64.to_int (Monotonic_clock.now ()));
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      H.json_begin name;
      f ();
      match H.json_finish ~scale:!Workloads.scale_factor () with
      | Some path -> Printf.printf "[json] wrote %s\n" path
      | None -> ())
    to_run;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
