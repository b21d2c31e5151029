(* Service-layer tests: LRU cache behaviour, registry eviction,
   protocol round trips (qcheck), the end-to-end protocol session
   (with cache-hit accounting via STATS), and the TCP front end. *)

open Sxsi_service

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* LRU                                                                  *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~cap:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* "b" is now least recently used: adding "c" evicts it *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check int) "length" 2 (Lru.length c)

let test_lru_replace_and_remove () =
  let c = Lru.create ~cap:3 in
  Lru.add c 1 "x";
  Lru.add c 1 "y";
  Alcotest.(check int) "replace keeps one entry" 1 (Lru.length c);
  Alcotest.(check (option string)) "replaced" (Some "y") (Lru.find c 1);
  Lru.remove c 1;
  Alcotest.(check (option string)) "removed" None (Lru.find c 1);
  Lru.remove c 1;
  Alcotest.(check int) "remove is idempotent" 0 (Lru.length c)

let test_lru_zero_cap () =
  let c = Lru.create ~cap:0 in
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "cap 0 stores nothing" None (Lru.find c "a");
  Alcotest.(check int) "cap 0 is empty" 0 (Lru.length c)

let prop_lru_order =
  (* after arbitrary adds/finds, to_list is duplicate-free, bounded by
     cap, and the most recently touched key is first *)
  qtest "lru invariants" QCheck2.Gen.(list (pair (int_range 0 9) bool))
    (fun ops ->
      let cap = 4 in
      let c = Lru.create ~cap in
      let last_touch = ref None in
      List.iter
        (fun (k, is_add) ->
          if is_add then begin
            Lru.add c k k;
            last_touch := Some k
          end
          else begin
            match Lru.find c k with
            | Some _ -> last_touch := Some k
            | None -> ()
          end)
        ops;
      let l = Lru.to_list c in
      let keys = List.map fst l in
      List.length l <= cap
      && List.sort_uniq compare keys = List.sort compare keys
      && (match (!last_touch, keys) with
         | Some k, first :: _ -> k = first
         | Some _, [] -> false
         | None, _ -> keys = []))

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let small_doc tag n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("<" ^ tag ^ ">");
  for i = 1 to n do
    Buffer.add_string buf (Printf.sprintf "<item n=\"%d\">payload %d</item>" i i)
  done;
  Buffer.add_string buf ("</" ^ tag ^ ">");
  Sxsi_xml.Document.of_xml (Buffer.contents buf)

let test_registry_eviction () =
  let d1 = small_doc "a" 50 and d2 = small_doc "b" 50 and d3 = small_doc "c" 50 in
  let b1 = Sxsi_xml.Document.space_bits d1 / 8 in
  let b2 = Sxsi_xml.Document.space_bits d2 / 8 in
  (* room for two of the three *)
  let r = Registry.create ~max_bytes:(b1 + b2 + 16) () in
  ignore (Registry.add r "d1" d1);
  ignore (Registry.add r "d2" d2);
  Alcotest.(check int) "two registered" 2 (Registry.count r);
  (* touch d1 so d2 is the LRU victim *)
  Alcotest.(check bool) "find d1" true (Registry.find r "d1" <> None);
  ignore (Registry.add r "d3" d3);
  Alcotest.(check bool) "d2 evicted" true (Registry.find r "d2" = None);
  Alcotest.(check bool) "d1 kept" true (Registry.find r "d1" <> None);
  Alcotest.(check int) "eviction counted" 1 (Registry.evictions r);
  (* generations are unique across registrations *)
  let g1 = (Option.get (Registry.find r "d1")).Registry.generation in
  let g3 = (Option.get (Registry.find r "d3")).Registry.generation in
  Alcotest.(check bool) "distinct generations" true (g1 <> g3)

let test_registry_replace_changes_generation () =
  let r = Registry.create () in
  let e1 = Registry.add r "x" (small_doc "a" 5) in
  let e2 = Registry.add r "x" (small_doc "a" 7) in
  Alcotest.(check bool) "generation bumped" true
    (e1.Registry.generation <> e2.Registry.generation);
  Alcotest.(check int) "still one document" 1 (Registry.count r)

(* ------------------------------------------------------------------ *)
(* Protocol round trips (qcheck)                                        *)
(* ------------------------------------------------------------------ *)

let gen_word =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '9'; '-'; '_'; '.'; '/'; '['; ']';
                               '('; ')'; '@'; '*'; '"'; '='; ',' ])
      (int_range 1 8))

let gen_name =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'x'; '0'; '1'; '-'; '_'; '.' ])
      (int_range 1 10))

let gen_query =
  QCheck2.Gen.(map (String.concat " ") (list_size (int_range 1 4) gen_word))

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun name path -> Protocol.Load { name; path }) gen_name gen_name;
        map2 (fun doc query -> Protocol.Query { doc; query }) gen_name gen_query;
        map2 (fun doc query -> Protocol.Count { doc; query }) gen_name gen_query;
        map2 (fun doc query -> Protocol.Materialize { doc; query }) gen_name gen_query;
        return Protocol.Stats;
        return Protocol.Metrics;
        map2 (fun doc query -> Protocol.Trace { doc; query }) gen_name gen_query;
        map (fun name -> Protocol.Evict name) gen_name;
        return Protocol.Quit;
      ])

(* payload/message lines: printable, newline-free (the printer's only
   requirement; dot-stuffing must make "." and ".x" safe) *)
let gen_line =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 6) (oneofl [ "."; ".."; "a"; "xyz"; " "; "<a>"; "&"; "=" ])))

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map (fun toks -> Protocol.Ok toks) (list_size (int_range 0 4) gen_word);
        map (fun lines -> Protocol.Data lines) (list_size (int_range 0 8) gen_line);
        map (fun m -> Protocol.Err m) (map2 (fun w rest -> w ^ rest) gen_word gen_line);
      ])

let prop_request_roundtrip =
  qtest "request print -> parse round trip" gen_request (fun r ->
      Protocol.parse_request (Protocol.print_request r) = Ok r)

let split_wire s =
  (* the wire form ends with '\n'; drop the final empty fragment *)
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rev -> List.rev rev
  | _ -> Alcotest.fail "response not newline-terminated"

let prop_response_roundtrip =
  qtest "response print -> parse round trip" gen_response (fun r ->
      Protocol.parse_response (split_wire (Protocol.print_response r)) = Ok (r, []))

let prop_response_stream_roundtrip =
  qtest "response print -> incremental read round trip" gen_response (fun r ->
      let lines = ref (split_wire (Protocol.print_response r)) in
      let next () =
        match !lines with
        | [] -> None
        | l :: tl ->
          lines := tl;
          Some l
      in
      Protocol.read_response next = Ok r && !lines = [])

let test_parse_request_errors () =
  let bad s =
    match Protocol.parse_request s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "unknown verb" true (bad "FROB x");
  Alcotest.(check bool) "LOAD missing path" true (bad "LOAD x");
  Alcotest.(check bool) "COUNT missing query" true (bad "COUNT x");
  Alcotest.(check bool) "STATS with argument" true (bad "STATS now");
  Alcotest.(check bool) "METRICS with argument" true (bad "METRICS all");
  Alcotest.(check bool) "TRACE missing query" true (bad "TRACE d");
  Alcotest.(check bool) "case-insensitive verb" true
    (Protocol.parse_request "count d //a" = Ok (Protocol.Count { doc = "d"; query = "//a" }))

(* ------------------------------------------------------------------ *)
(* End-to-end: drive the service through the protocol layer             *)
(* ------------------------------------------------------------------ *)

let stat_of_lines lines key =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l > n && String.sub l 0 n = prefix then
        Some (String.sub l n (String.length l - n))
      else None)
    lines

let expect_ok = function
  | Protocol.Ok toks -> toks
  | Protocol.Err msg -> Alcotest.fail ("unexpected ERR: " ^ msg)
  | Protocol.Data _ | Protocol.Framed _ -> Alcotest.fail "unexpected DATA"

(* the payload lines of a DATA response, whether built as lines or
   already framed for the wire *)
let rec expect_data = function
  | Protocol.Data lines -> lines
  | Protocol.Framed wire as r -> (
    match Protocol.parse_response (split_wire wire) with
    | Ok ((Protocol.Data _ as d), []) -> expect_data d
    | _ -> Alcotest.fail ("malformed framed DATA: " ^ Protocol.print_response r))
  | Protocol.Err msg -> Alcotest.fail ("unexpected ERR: " ^ msg)
  | Protocol.Ok _ -> Alcotest.fail "unexpected OK"

let stats_value svc key =
  match stat_of_lines (expect_data (Service.handle svc Protocol.Stats)) key with
  | Some v -> v
  | None -> Alcotest.fail ("STATS missing key " ^ key)

let with_xmark_file f =
  let path = Filename.temp_file "sxsi_service" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Sxsi_datagen.Xmark.generate ~scale:120 ()));
      f path)

let test_end_to_end () =
  with_xmark_file (fun path ->
      let svc = Service.create () in
      let line l = Service.handle_line svc l in
      (* LOAD through the protocol *)
      (match line (Printf.sprintf "LOAD bench %s" path) with
      | Protocol.Ok ("loaded" :: "bench" :: _) -> ()
      | r -> Alcotest.fail ("LOAD failed: " ^ Protocol.print_response r));
      (* the same COUNT twice: second one must hit the compiled cache *)
      let c1 = expect_ok (line "COUNT bench //listitem//keyword") in
      let c2 = expect_ok (line "COUNT bench //listitem//keyword") in
      Alcotest.(check (list string)) "counts agree" c1 c2;
      Alcotest.(check string) "second request hit the compiled cache" "1"
        (stats_value svc "compiled_hits");
      Alcotest.(check string) "first request was the only miss" "1"
        (stats_value svc "compiled_misses");
      Alcotest.(check string) "count cache hit too" "1" (stats_value svc "count_hits");
      (* QUERY returns as many preorder ids as COUNT reported *)
      let ids = expect_data (line "QUERY bench //listitem//keyword") in
      Alcotest.(check int) "QUERY cardinality" (int_of_string (List.hd c1))
        (List.length ids);
      Alcotest.(check bool) "ids are numeric" true
        (List.for_all (fun s -> match int_of_string_opt s with Some _ -> true | None -> false) ids);
      (* MATERIALIZE round-trips through the document serializer *)
      let xml = expect_data (line "MATERIALIZE bench /site/regions") in
      Alcotest.(check bool) "materialized XML" true
        (match xml with l :: _ -> String.length l > 0 && l.[0] = '<' | [] -> false);
      (* METRICS returns a Prometheus exposition with our sample lines *)
      let metrics = expect_data (line "METRICS") in
      let has_sample name =
        List.exists
          (fun l ->
            String.length l > String.length name
            && String.sub l 0 (String.length name) = name
            && (l.[String.length name] = ' ' || l.[String.length name] = '{'))
          metrics
      in
      List.iter
        (fun name ->
          Alcotest.(check bool) ("METRICS sample " ^ name) true (has_sample name))
        [
          "sxsi_requests_total"; "sxsi_documents";
          "sxsi_request_duration_seconds_bucket"; "sxsi_request_duration_seconds_count";
        ];
      Alcotest.(check bool) "METRICS has TYPE comments" true
        (List.exists
           (fun l -> String.length l > 6 && String.sub l 0 6 = "# TYPE")
           metrics);
      (* TRACE answers one line that parses as JSON — the regression
         guard for the --trace output format *)
      (match expect_data (line "TRACE bench //listitem//keyword") with
      | [ json_line ] -> (
        match Sxsi_obs.Json.of_string json_line with
        | Ok j ->
          Alcotest.(check bool) "trace has phases" true
            (Sxsi_obs.Json.member "phases" j <> None);
          Alcotest.(check bool) "trace has counters" true
            (Sxsi_obs.Json.member "counters" j <> None);
          (match Sxsi_obs.Json.member "counters" j with
          | Some counters ->
            Alcotest.(check bool) "trace counts results" true
              (Sxsi_obs.Json.member "results" counters
              = Some (Sxsi_obs.Json.Int (int_of_string (List.hd c1))))
          | None -> ())
        | Error e -> Alcotest.failf "TRACE output is not JSON: %s" e)
      | lines -> Alcotest.failf "TRACE returned %d lines" (List.length lines));
      (* errors are ERR, not exceptions *)
      (match line "COUNT nosuch //a" with
      | Protocol.Err _ -> ()
      | _ -> Alcotest.fail "unknown document must ERR");
      (match line "COUNT bench //a[" with
      | Protocol.Err _ -> ()
      | _ -> Alcotest.fail "bad query must ERR");
      (match line "NONSENSE" with
      | Protocol.Err _ -> ()
      | _ -> Alcotest.fail "bad request must ERR");
      (* EVICT drops the document and its cached queries *)
      ignore (expect_ok (line "EVICT bench"));
      (match line "COUNT bench //listitem//keyword" with
      | Protocol.Err _ -> ()
      | _ -> Alcotest.fail "evicted document must ERR");
      Alcotest.(check string) "registry empty" "0" (stats_value svc "documents");
      Alcotest.(check string) "compiled cache purged" "0"
        (stats_value svc "compiled_entries"))

let test_load_reload_invalidates () =
  (* reloading under the same name must not serve stale cached counts *)
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "a" 10);
  let n1 = expect_ok (Service.handle_line svc "COUNT d //item") in
  Alcotest.(check (list string)) "10 items" [ "10" ] n1;
  Service.add_document svc "d" (small_doc "a" 25);
  let n2 = expect_ok (Service.handle_line svc "COUNT d //item") in
  Alcotest.(check (list string)) "25 items after reload" [ "25" ] n2

let test_corrupt_load_is_err () =
  let path = Filename.temp_file "sxsi_service" ".sxsi" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "junk");
      let svc = Service.create () in
      match Service.handle_line svc (Printf.sprintf "LOAD d %s" path) with
      | Protocol.Err _ -> ()
      | _ -> Alcotest.fail "corrupt .sxsi must ERR")

(* ------------------------------------------------------------------ *)
(* Concurrency: many domains against one service                        *)
(* ------------------------------------------------------------------ *)

let test_concurrent_counts () =
  let svc = Service.create () in
  Service.add_document svc "d"
    (Sxsi_xml.Document.of_xml (Sxsi_datagen.Xmark.generate ~scale:120 ()));
  let queries =
    [| "//listitem//keyword"; "//keyword"; "/site/regions"; "//item"; "//emph" |]
  in
  let expected = Array.map (fun q -> expect_ok (Service.handle_line svc ("COUNT d " ^ q))) queries in
  let worker i () =
    let ok = ref true in
    for r = 0 to 40 do
      let j = (i + r) mod Array.length queries in
      let got = Service.handle svc (Protocol.Count { doc = "d"; query = queries.(j) }) in
      if got <> Protocol.Ok expected.(j) then ok := false
    done;
    !ok
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  let all_ok = List.for_all Domain.join domains in
  Alcotest.(check bool) "all domains saw consistent counts" true all_ok

(* ------------------------------------------------------------------ *)
(* TCP front end                                                        *)
(* ------------------------------------------------------------------ *)

let with_server = Tcp_harness.with_server
let connect = Tcp_harness.connect
let exchange = Tcp_harness.exchange

let test_tcp_server () =
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" 20);
  with_server svc (fun port ->
      let run_session lines =
        let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
        let ic, oc = Unix.open_connection addr in
        Fun.protect
          ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
          (fun () -> List.map (exchange ic oc) lines)
      in
      (match run_session [ "COUNT d //item"; "QUIT" ] with
      | [ Protocol.Ok [ "20" ]; Protocol.Ok [ "bye" ] ] -> ()
      | rs ->
        Alcotest.fail
          ("unexpected responses: "
          ^ String.concat " | " (List.map Protocol.print_response rs)));
      (* a second connection shares the warm cache *)
      (match run_session [ "COUNT d //item"; "STATS"; "QUIT" ] with
      | [ Protocol.Ok [ "20" ]; Protocol.Data lines; Protocol.Ok [ "bye" ] ] ->
        Alcotest.(check bool) "cache shared across connections" true
          (match stat_of_lines lines "compiled_hits" with
          | Some v -> int_of_string v >= 1
          | None -> false)
      | rs ->
        Alcotest.fail
          ("unexpected responses: "
          ^ String.concat " | " (List.map Protocol.print_response rs))))

(* Cycle many short-lived connections and verify, once [serve] has
   returned (closing every live connection and joining its executor),
   that every accepted session also finished — no connection leaked. *)
let test_connection_churn () =
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" 10);
  let rounds = 40 in
  with_server svc (fun port ->
      for _ = 1 to rounds do
        let ic, oc = connect port in
        Fun.protect
          ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
          (fun () ->
            output_string oc "COUNT d //item\nQUIT\n";
            flush oc;
            match Protocol.read_response (fun () ->
                match input_line ic with
                | line -> Some line
                | exception End_of_file -> None)
            with
            | Ok (Protocol.Ok [ "10" ]) -> ()
            | Ok r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r)
            | Error e -> Alcotest.fail ("client read: " ^ e))
      done);
  (* serve has returned: every connection is closed, so all sessions ended *)
  let opened = int_of_string (stats_value svc "connections_opened") in
  let closed = int_of_string (stats_value svc "connections_closed") in
  Alcotest.(check int) "every connection accepted" rounds opened;
  Alcotest.(check int) "every session finished" opened closed;
  Alcotest.(check string) "nothing shed" "0" (stats_value svc "connections_shed")

(* Load shedding: at the connection limit, a new connection is refused
   with one protocol-shaped ERR line and closed, while the connection
   already held is still served. *)
let test_load_shedding () =
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" 5);
  with_server ~max_conns:1 svc (fun port ->
      (* hold the one connection slot; reading a response proves the
         loop accepted A *)
      let ic_a, oc_a = connect port in
      output_string oc_a "COUNT d //item\n";
      flush oc_a;
      Alcotest.(check string) "A served" "OK 5" (input_line ic_a);
      (* the next connection must be refused with a protocol error
         carrying the SHED code and a retry hint *)
      let ic_c, _oc_c = connect port in
      let shed_line = input_line ic_c in
      Alcotest.(check bool) "shed response is ERR" true
        (String.length shed_line > 4 && String.sub shed_line 0 4 = "ERR ");
      let shed_resp =
        Protocol.Err (String.sub shed_line 4 (String.length shed_line - 4))
      in
      Alcotest.(check (option string)) "shed code" (Some "SHED")
        (Protocol.err_code shed_resp);
      Alcotest.(check bool) "shed retry hint" true
        (Protocol.retry_after_ms shed_resp <> None);
      Alcotest.(check bool) "shed closes the connection" true
        (match input_line ic_c with _ -> false | exception End_of_file -> true);
      (try Unix.shutdown_connection ic_c with _ -> ());
      (* the held connection is still served *)
      output_string oc_a "COUNT d //item\nQUIT\n";
      flush oc_a;
      Alcotest.(check string) "held connection still served" "OK 5" (input_line ic_a);
      Alcotest.(check string) "held connection quits" "OK bye" (input_line ic_a);
      (try Unix.shutdown_connection ic_a with _ -> ());
      (* A's QUIT closed it before the loop polls again, so the freed
         slot admits B *)
      let ic_b, oc_b = connect port in
      output_string oc_b "COUNT d //item\nQUIT\n";
      flush oc_b;
      Alcotest.(check string) "B served once A left" "OK 5" (input_line ic_b);
      try Unix.shutdown_connection ic_b with _ -> ());
  Alcotest.(check string) "shed counted" "1" (stats_value svc "connections_shed");
  let opened = int_of_string (stats_value svc "connections_opened") in
  let closed = int_of_string (stats_value svc "connections_closed") in
  Alcotest.(check int) "A and B accepted" 2 opened;
  Alcotest.(check int) "A and B finished" 2 closed

(* With [domains > 1] the service owns an evaluation pool: results must
   be identical to the sequential service, and the pool's counters must
   join the exposition. *)
let test_service_domains () =
  let seq = Service.create () in
  let opts = { Service.default_options with Service.domains = 2 } in
  let par = Service.create ~options:opts () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown par)
    (fun () ->
      let xml = Sxsi_datagen.Xmark.generate ~scale:120 () in
      Service.add_document seq "d" (Sxsi_xml.Document.of_xml xml);
      Service.add_document par "d"
        (Sxsi_xml.Document.build ?pool:(Service.pool par) xml);
      List.iter
        (fun q ->
          let line = "COUNT d " ^ q in
          Alcotest.(check (list string)) q
            (expect_ok (Service.handle_line seq line))
            (expect_ok (Service.handle_line par line)))
        [ "//listitem//keyword"; "//keyword"; "//item"; "//emph"; "/site/regions" ];
      let metrics = expect_data (Service.handle par Protocol.Metrics) in
      Alcotest.(check bool) "pool metrics exposed" true
        (List.exists
           (fun l ->
             String.length l >= 21 && String.sub l 0 21 = "sxsi_pool_tasks_total")
           metrics))

(* ------------------------------------------------------------------ *)
(* Resource governance over live TCP: every coded ERR the protocol     *)
(* documents, driven by failpoints where a fault is needed             *)
(* ------------------------------------------------------------------ *)

module Failpoint = Sxsi_qos.Failpoint

let with_clean_failpoints f = Fun.protect ~finally:Failpoint.deactivate_all f

let check_code label expected resp =
  Alcotest.(check (option string)) label (Some expected) (Protocol.err_code resp)

let test_deadline_verb () =
  let svc = Service.create () in
  (match Service.handle svc (Protocol.Deadline 50) with
  | Protocol.Ok [ "deadline"; "50" ] -> ()
  | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r));
  (match Service.handle svc (Protocol.Deadline 0) with
  | Protocol.Ok [ "deadline"; "off" ] -> ()
  | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r));
  (match Service.handle_line svc "DEADLINE nope" with
  | Protocol.Err _ -> ()
  | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r))

(* ERR DEADLINE from a request-level deadline, then ERR BREAKER once
   the per-document breaker has seen enough consecutive blowups. *)
let test_err_deadline_then_breaker () =
  with_clean_failpoints (fun () ->
      let svc =
        Service.create
          ~options:
            {
              Service.default_options with
              default_deadline_ms = 40;
              breaker_threshold = 2;
              breaker_cooldown_ms = 60_000;
            }
          ()
      in
      Service.add_document svc "d" (small_doc "root" 5);
      Failpoint.activate "engine.eval" (Failpoint.Delay_ms 80);
      with_server svc (fun port ->
          let ic, oc = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
            (fun () ->
              check_code "first overrun" "DEADLINE" (exchange ic oc "COUNT d //item");
              check_code "second overrun" "DEADLINE" (exchange ic oc "COUNT d //item");
              (* breaker open: refused without evaluating *)
              let r = exchange ic oc "COUNT d //item" in
              check_code "breaker refuses" "BREAKER" r;
              Alcotest.(check bool) "retry hint present" true
                (Protocol.retry_after_ms r <> None);
              ignore (exchange ic oc "QUIT")));
      Alcotest.(check string) "deadline errors counted" "2"
        (stats_value svc "deadline_errors");
      Alcotest.(check string) "breaker rejection counted" "1"
        (stats_value svc "breaker_rejections");
      let metrics = Service.metrics_text svc in
      Alcotest.(check bool) "breaker gauge exported" true
        (let needle = "sxsi_qos_breaker_open 1" in
         let n = String.length needle in
         let rec find i =
           i + n <= String.length metrics
           && (String.sub metrics i n = needle || find (i + 1))
         in
         find 0))

let test_err_budget () =
  let svc =
    Service.create
      ~options:
        { Service.default_options with max_results = 3; max_result_bytes = 64 }
      ()
  in
  Service.add_document svc "d" (small_doc "root" 10);
  with_server svc (fun port ->
      let ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
        (fun () ->
          check_code "result cap" "BUDGET" (exchange ic oc "QUERY d //item");
          check_code "byte cap" "BUDGET" (exchange ic oc "MATERIALIZE d //item");
          ignore (exchange ic oc "QUIT")));
  Alcotest.(check string) "budget errors counted" "2" (stats_value svc "budget_errors")

let test_err_injected_and_toolong () =
  with_clean_failpoints (fun () ->
      let svc = Service.create () in
      Service.add_document svc "d" (small_doc "root" 5);
      with_server svc (fun port ->
          let ic, oc = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
            (fun () ->
              Failpoint.activate "engine.eval" Failpoint.Fail;
              check_code "injected fault" "INJECTED" (exchange ic oc "COUNT d //item");
              Failpoint.deactivate_all ();
              (* an oversized request line: refused, drained, session survives *)
              let long = "COUNT d " ^ String.make (Server.default_max_line + 100) 'x' in
              check_code "oversized line" "TOOLONG" (exchange ic oc long);
              (match exchange ic oc "COUNT d //item" with
              | Protocol.Ok [ "5" ] -> ()
              | r ->
                Alcotest.fail ("session should survive TOOLONG: " ^ Protocol.print_response r));
              ignore (exchange ic oc "QUIT"))))

(* The DEADLINE verb scopes a deadline to the session: on by request,
   off again at 0; the service default stays untouched. *)
let test_deadline_session_override () =
  with_clean_failpoints (fun () ->
      let svc = Service.create () in
      Service.add_document svc "d" (small_doc "root" 5);
      Failpoint.activate "engine.eval" (Failpoint.Delay_ms 60);
      with_server svc (fun port ->
          let ic, oc = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
            (fun () ->
              (* no deadline configured: slow but fine *)
              (match exchange ic oc "COUNT d //item" with
              | Protocol.Ok [ "5" ] -> ()
              | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r));
              (match exchange ic oc "DEADLINE 30" with
              | Protocol.Ok [ "deadline"; "30" ] -> ()
              | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r));
              (* QUERY, not COUNT: the result-count cache would answer a
                 repeated COUNT before any budget check runs *)
              check_code "session deadline enforced" "DEADLINE"
                (exchange ic oc "QUERY d //item");
              (match exchange ic oc "DEADLINE 0" with
              | Protocol.Ok [ "deadline"; "off" ] -> ()
              | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r));
              (match exchange ic oc "QUERY d //item" with
              | Protocol.Data ids -> Alcotest.(check int) "all ids" 5 (List.length ids)
              | r -> Alcotest.fail ("unexpected: " ^ Protocol.print_response r));
              ignore (exchange ic oc "QUIT"))))

(* End to end: a server under a 50ms default deadline answers a
   pathological (failpoint-delayed) query with ERR DEADLINE promptly —
   the delay is 75ms, so ~1.5x the deadline — and the one shard
   executor is reused for a healthy request afterwards. *)
let test_e2e_deadline_prompt_and_executor_reused () =
  with_clean_failpoints (fun () ->
      let svc =
        Service.create
          ~options:{ Service.default_options with default_deadline_ms = 50 }
          ()
      in
      Service.add_document svc "d" (small_doc "root" 5);
      Failpoint.activate "engine.eval" (Failpoint.Delay_ms 75);
      with_server svc (fun port ->
          let ic, oc = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
            (fun () ->
              let t0 = Unix.gettimeofday () in
              check_code "pathological query deadlines" "DEADLINE"
                (exchange ic oc "COUNT d //item");
              let dt = Unix.gettimeofday () -. t0 in
              (* ~1.5x the deadline plus slack for a loaded CI machine;
                 the point is bounded, not exact *)
              Alcotest.(check bool)
                (Printf.sprintf "answered promptly (%.0fms)" (dt *. 1000.))
                true (dt < 1.0);
              ignore (exchange ic oc "QUIT"));
          (* the executor survives the deadline and serves the next
             connection (one shard: this is the same executor) *)
          Failpoint.deactivate_all ();
          let ic, oc = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
            (fun () ->
              (match exchange ic oc "COUNT d //item" with
              | Protocol.Ok [ "5" ] -> ()
              | r -> Alcotest.fail ("executor not reusable: " ^ Protocol.print_response r));
              ignore (exchange ic oc "QUIT"))))

(* ------------------------------------------------------------------ *)
(* Flight recorder: the DUMP verb and the slow-query log               *)
(* ------------------------------------------------------------------ *)

module Journal = Sxsi_obs.Journal
module Json = Sxsi_obs.Json

let with_flight_recorder f =
  Journal.reset ();
  Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Journal.set_enabled false;
      Journal.reset ())
    f

let test_dump_verb () =
  with_flight_recorder (fun () ->
      let svc = Service.create () in
      Service.add_document svc "d" (small_doc "a" 10);
      ignore (expect_ok (Service.handle_line svc "COUNT d //item"));
      (* DUMP is one JSON line in the journal wire schema *)
      (match expect_data (Service.handle svc Protocol.Dump) with
      | [ json_line ] -> (
        match Json.of_string json_line with
        | Error e -> Alcotest.failf "DUMP is not JSON: %s" e
        | Ok j -> (
          Alcotest.(check bool) "journal schema" true
            (Json.member "schema" j = Some (Json.String "sxsi-journal-v1"));
          match Journal.of_json j with
          | Error e -> Alcotest.failf "DUMP does not decode: %s" e
          | Ok snaps ->
            let cats =
              List.concat_map
                (fun s ->
                  Array.to_list
                    (Array.map (fun r -> Journal.category_label r.Journal.cat) s.Journal.records))
                snaps
            in
            List.iter
              (fun c ->
                Alcotest.(check bool) (c ^ " spans recorded") true (List.mem c cats))
              [ "engine"; "service" ]))
      | lines -> Alcotest.failf "DUMP returned %d lines" (List.length lines));
      (* STATS reports the recorder's state *)
      Alcotest.(check string) "journal_enabled" "1" (stats_value svc "journal_enabled");
      Alcotest.(check bool) "journal_records positive" true
        (int_of_string (stats_value svc "journal_records") > 0))

let test_slow_log () =
  (* a fake clock stepping 2ms per reading makes every request "slow"
     without sleeping *)
  let restore = fun () -> int_of_float (Unix.gettimeofday () *. 1e9) in
  let t = ref 0 in
  let path = Filename.temp_file "sxsi_slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sxsi_obs.Clock.set_source restore;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_flight_recorder (fun () ->
          Sxsi_obs.Clock.set_source (fun () ->
              t := !t + 2_000_000;
              !t);
          let slow_log = Sxsi_obs.Slowlog.create path in
          let svc =
            Service.create
              ~options:{ Service.default_options with slow_ms = 1 }
              ~slow_log ()
          in
          Service.add_document svc "d" (small_doc "a" 10);
          ignore (expect_ok (Service.handle_line svc "COUNT d //item"));
          (match Service.slow_log svc with
          | None -> Alcotest.fail "service lost its slow log"
          | Some l ->
            Alcotest.(check bool) "an entry was written" true
              (Sxsi_obs.Slowlog.entries l > 0));
          (* shutdown closes (and flushes) the log *)
          Service.shutdown svc;
          let ic = open_in path in
          let lines = In_channel.input_lines ic in
          close_in ic;
          Alcotest.(check bool) "log is non-empty" true (List.length lines > 0);
          let entries =
            List.map
              (fun l ->
                match Json.of_string l with
                | Ok j -> j
                | Error e -> Alcotest.failf "slow-log line is not JSON: %s" e)
              lines
          in
          List.iter
            (fun j ->
              List.iter
                (fun key ->
                  Alcotest.(check bool) ("entry has " ^ key) true
                    (Json.member key j <> None))
                [ "ts_ns"; "request"; "duration_ms"; "status" ])
            entries;
          Alcotest.(check bool) "an entry carries reconstructed spans" true
            (List.exists
               (fun j ->
                 match Json.member "spans" j with
                 | Some (Json.List (_ :: _)) -> true
                 | _ -> false)
               entries)))

let suite =
  ( "service",
    [
      Alcotest.test_case "lru basic" `Quick test_lru_basic;
      Alcotest.test_case "lru replace/remove" `Quick test_lru_replace_and_remove;
      Alcotest.test_case "lru zero capacity" `Quick test_lru_zero_cap;
      prop_lru_order;
      Alcotest.test_case "registry eviction" `Quick test_registry_eviction;
      Alcotest.test_case "registry reload generation" `Quick
        test_registry_replace_changes_generation;
      prop_request_roundtrip;
      prop_response_roundtrip;
      prop_response_stream_roundtrip;
      Alcotest.test_case "request parse errors" `Quick test_parse_request_errors;
      Alcotest.test_case "end-to-end protocol session" `Quick test_end_to_end;
      Alcotest.test_case "reload invalidates caches" `Quick test_load_reload_invalidates;
      Alcotest.test_case "corrupt LOAD is ERR" `Quick test_corrupt_load_is_err;
      Alcotest.test_case "concurrent counts" `Quick test_concurrent_counts;
      Alcotest.test_case "tcp server" `Quick test_tcp_server;
      Alcotest.test_case "connection churn leaks nothing" `Quick test_connection_churn;
      Alcotest.test_case "load shedding" `Quick test_load_shedding;
      Alcotest.test_case "service with domains" `Quick test_service_domains;
      Alcotest.test_case "DEADLINE verb" `Quick test_deadline_verb;
      Alcotest.test_case "ERR DEADLINE then ERR BREAKER" `Quick
        test_err_deadline_then_breaker;
      Alcotest.test_case "ERR BUDGET" `Quick test_err_budget;
      Alcotest.test_case "ERR INJECTED and ERR TOOLONG" `Quick
        test_err_injected_and_toolong;
      Alcotest.test_case "DEADLINE session override" `Quick
        test_deadline_session_override;
      Alcotest.test_case "e2e: prompt deadline, executor reused" `Quick
        test_e2e_deadline_prompt_and_executor_reused;
      Alcotest.test_case "DUMP verb returns the journal" `Quick test_dump_verb;
      Alcotest.test_case "slow-query log end to end" `Quick test_slow_log;
    ] )
