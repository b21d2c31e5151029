open Sxsi_xml
open Sxsi_core
module Budget = Sxsi_qos.Budget
module Breaker = Sxsi_qos.Breaker
module J = Sxsi_obs.Journal

(* Flight-recorder span names for the request lifecycle. *)
let n_parse = J.name "service/parse"
let n_eval = J.name "service/eval"
let n_request = J.name "service/request"

(* The registry lock is the most shared mutex in the process (every
   cache lookup and latency record takes it from every serving domain);
   watch it for the contention profile. *)
let lock_site = Sxsi_obs.Contend.site "service.lock"

type options = {
  max_doc_bytes : int;
  compiled_cache : int;
  count_cache : int;
  enable_jump : bool;
  enable_memo : bool;
  enable_early : bool;
  optimize : bool;  (* whole-query automaton optimization at compile time *)
  domains : int;
  default_deadline_ms : int;
  max_results : int;
  max_result_bytes : int;
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  slow_ms : int;  (* requests slower than this land in the slow-query log; 0 = off *)
  backend : Document.backend option;  (* tree backend for indexing; None = env/default *)
}

let default_options =
  {
    max_doc_bytes = max_int;
    compiled_cache = 256;
    count_cache = 4096;
    enable_jump = true;
    enable_memo = true;
    enable_early = false;
    optimize = true;
    domains = 1;
    default_deadline_ms = 0;
    max_results = 0;
    max_result_bytes = 0;
    breaker_threshold = 0;
    breaker_cooldown_ms = 1000;
    slow_ms = 0;
    backend = None;
  }

(* Cache key: document name + registration generation (so a reload
   under the same name invalidates everything), the query text, and the
   engine-configuration fingerprint. *)
type key = { kdoc : string; kgen : int; kquery : string; kconfig : string }

type t = {
  opts : options;
  config_fp : string;
  lock : Mutex.t;
  registry : Registry.t;
  compiled : (key, Engine.compiled) Lru.t;
  counts : (key, int) Lru.t;
  metrics : Metrics.t;
  exposition : Sxsi_obs.Exposition.t;
  pool : Sxsi_par.Pool.t option;  (* document builds only; None when domains <= 1 *)
  breakers : (string, Breaker.t) Hashtbl.t;
      (* per-document, keyed by name (survives reloads).  Guarded by
         its own mutex: the exposition's breaker gauge renders under
         the service lock, so taking [lock] again would deadlock. *)
  breakers_lock : Mutex.t;
  slow_log : Sxsi_obs.Slowlog.t option;
}

let config_fingerprint o =
  Printf.sprintf "j%bm%be%bo%b" o.enable_jump o.enable_memo o.enable_early o.optimize

(* Everything the service knows how to report, in the Prometheus text
   format.  Gauges and callback counters read the live structures at
   render time; [metrics_text] renders under the service lock. *)
let build_exposition ~metrics ~registry ~compiled ~counts ~breakers ~breakers_lock =
  let e = Sxsi_obs.Exposition.create () in
  let counter = Sxsi_obs.Exposition.register_counter e in
  counter ~help:"Requests handled, including errors." ~name:"sxsi_requests_total"
    metrics.Metrics.requests;
  counter ~help:"Requests answered with ERR." ~name:"sxsi_errors_total"
    metrics.Metrics.errors;
  counter ~help:"Compiled-query cache hits." ~name:"sxsi_compiled_cache_hits_total"
    metrics.Metrics.compiled_hits;
  counter ~help:"Compiled-query cache misses." ~name:"sxsi_compiled_cache_misses_total"
    metrics.Metrics.compiled_misses;
  counter ~help:"Result-count cache hits." ~name:"sxsi_count_cache_hits_total"
    metrics.Metrics.count_hits;
  counter ~help:"Result-count cache misses." ~name:"sxsi_count_cache_misses_total"
    metrics.Metrics.count_misses;
  counter ~help:"Connections accepted into a session." ~name:"sxsi_connections_opened_total"
    metrics.Metrics.connections_opened;
  counter ~help:"Sessions finished, for any reason." ~name:"sxsi_connections_closed_total"
    metrics.Metrics.connections_closed;
  counter ~help:"Connections refused because the connection limit was reached."
    ~name:"sxsi_connections_shed_total" metrics.Metrics.connections_shed;
  Sxsi_obs.Exposition.register_histogram e
    ~help:"Request latency." ~scale:1e-9 ~name:"sxsi_request_duration_seconds"
    metrics.Metrics.latency;
  let gauge = Sxsi_obs.Exposition.register_gauge e in
  gauge ~help:"Documents registered." ~name:"sxsi_documents" (fun () ->
      float_of_int (Registry.count registry));
  gauge ~help:"Estimated bytes of the registered document indexes."
    ~name:"sxsi_document_bytes" (fun () -> float_of_int (Registry.total_bytes registry));
  gauge ~help:"Compiled-query cache entries." ~name:"sxsi_compiled_cache_entries"
    (fun () -> float_of_int (Lru.length compiled));
  gauge ~help:"Result-count cache entries." ~name:"sxsi_count_cache_entries" (fun () ->
      float_of_int (Lru.length counts));
  let cb = Sxsi_obs.Exposition.register_callback_counter e in
  cb ~help:"Documents dropped by byte pressure." ~name:"sxsi_document_evictions_total"
    (fun () -> float_of_int (Registry.evictions registry));
  cb ~help:"Compiled queries dropped by capacity pressure."
    ~name:"sxsi_compiled_cache_evictions_total" (fun () ->
      float_of_int (Lru.evictions compiled));
  cb ~help:"Cached counts dropped by capacity pressure."
    ~name:"sxsi_count_cache_evictions_total" (fun () ->
      float_of_int (Lru.evictions counts));
  (* Resource-governance series.  The qos_* totals read the
     process-wide Sxsi_qos counters — one process runs one service in
     practice; co-hosted services report shared totals. *)
  counter ~help:"Requests answered ERR DEADLINE." ~name:"sxsi_deadline_errors_total"
    metrics.Metrics.deadline_errors;
  counter ~help:"Requests answered ERR BUDGET." ~name:"sxsi_budget_errors_total"
    metrics.Metrics.budget_errors;
  counter ~help:"Requests refused by an open circuit breaker."
    ~name:"sxsi_breaker_rejections_total" metrics.Metrics.breaker_rejections;
  counter ~help:"Query budgets tripped by their deadline (process-wide)."
    ~name:"sxsi_qos_deadline_exceeded_total" Budget.deadline_exceeded_total;
  counter ~help:"Query budgets tripped for any reason (process-wide)."
    ~name:"sxsi_qos_exceeded_total" Budget.exceeded_total;
  counter
    ~help:"Budget checks that raised because the budget had already tripped (process-wide)."
    ~name:"sxsi_qos_cancelled_chunks_total" Budget.cancelled_chunks_total;
  gauge ~help:"Documents whose circuit breaker is currently refusing requests."
    ~name:"sxsi_qos_breaker_open" (fun () ->
      Mutex.protect breakers_lock (fun () ->
          float_of_int
            (Hashtbl.fold
               (fun _ b n -> if Breaker.is_open b then n + 1 else n)
               breakers 0)));
  Sxsi_obs.Exposition.register_histogram e
    ~help:"Accept-queue wait before a connection's first request." ~scale:1e-9
    ~name:"sxsi_admission_wait_seconds" metrics.Metrics.admission_wait;
  (* Flight-recorder series.  Process-global, registered here (not in
     Runtime.register) so drops and ring pressure are visible in
     METRICS whether or not the runtime sampler is running. *)
  gauge ~help:"1 while the flight recorder is recording."
    ~name:"sxsi_journal_enabled" (fun () -> if J.enabled () then 1.0 else 0.0);
  cb ~help:"Journal records ever written, including overwritten ones."
    ~name:"sxsi_journal_records_total" (fun () -> float_of_int (J.records_total ()));
  cb ~help:"Journal records lost to ring wrap-around."
    ~name:"sxsi_journal_dropped_total" (fun () -> float_of_int (J.dropped_total ()));
  Sxsi_obs.Exposition.register_multi_gauge e
    ~help:"Journal records lost to wrap-around, by recording domain."
    ~name:"sxsi_journal_ring_dropped_total"
    (fun () ->
      List.map
        (fun (dom, dropped, _held, _cap) ->
          ([ ("domain", string_of_int dom) ], float_of_int dropped))
        (J.ring_stats ()));
  Sxsi_obs.Exposition.register_multi_gauge e
    ~help:"How full each domain's journal ring is, in percent."
    ~name:"sxsi_journal_ring_occupancy_percent"
    (fun () ->
      List.map
        (fun (dom, _dropped, held, cap) ->
          ( [ ("domain", string_of_int dom) ],
            100.0 *. float_of_int held /. float_of_int (max 1 cap) ))
        (J.ring_stats ()));
  (* The sampling profiler's series (sampler state, wall seconds by
     root span, lock contention by site). *)
  Sxsi_prof.Prof.register_metrics e;
  e

let create ?(options = default_options) ?slow_log () =
  Sxsi_qos.Failpoint.init_from_env ();
  let metrics = Metrics.create () in
  let registry = Registry.create ~max_bytes:options.max_doc_bytes () in
  let compiled = Lru.create ~cap:options.compiled_cache in
  let counts = Lru.create ~cap:options.count_cache in
  let breakers = Hashtbl.create 8 in
  let breakers_lock = Mutex.create () in
  let exposition =
    build_exposition ~metrics ~registry ~compiled ~counts ~breakers ~breakers_lock
  in
  let pool =
    if options.domains > 1 then begin
      let p = Sxsi_par.Pool.create ~name:"service" ~domains:options.domains () in
      Sxsi_par.Pool.register_metrics p exposition;
      Some p
    end
    else None
  in
  {
    opts = options;
    config_fp = config_fingerprint options;
    lock = Mutex.create ();
    registry;
    compiled;
    counts;
    metrics;
    exposition;
    pool;
    breakers;
    breakers_lock;
    slow_log;
  }

let pool t = t.pool
let service_metrics t = t.metrics
let slow_log t = t.slow_log

let shutdown t =
  Option.iter Sxsi_par.Pool.shutdown t.pool;
  Option.iter Sxsi_obs.Slowlog.close t.slow_log

(* The front end hangs its own instrumentation (the event loop's turn
   and coalescing counters, the executor gauges) off the service's
   exposition, under the service lock, so METRICS reports it alongside
   everything else. *)
let register_exposition t f = Mutex.protect t.lock (fun () -> f t.exposition)

(* Likewise for the runtime sampler: the serve front end starts one
   and hangs its GC/journal series off the shared exposition. *)
let register_runtime t sampler =
  Mutex.protect t.lock (fun () ->
      Sxsi_obs.Runtime.register sampler t.exposition)

let locked t f = Sxsi_obs.Contend.with_lock lock_site t.lock f

let run_config t =
  {
    Run.enable_jump = t.opts.enable_jump;
    enable_memo = t.opts.enable_memo;
    enable_early = t.opts.enable_early;
    stats = Run.fresh_stats ();
  }

(* ------------------------------------------------------------------ *)
(* Documents                                                            *)
(* ------------------------------------------------------------------ *)

let add_document t name doc = locked t (fun () -> ignore (Registry.add t.registry name doc))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_document ?pool ?backend path =
  if Filename.check_suffix path ".sxsi" then Document.load path
  else Document.of_xml ?pool ?backend (read_file path)

(* Drop the cached queries of an evicted/replaced document right away
   rather than letting generation-stale entries age out: they pin the
   whole document in memory. *)
let purge_caches_of t name =
  let purge : 'v. (key, 'v) Lru.t -> unit =
   fun cache ->
    List.iter
      (fun (k, _) -> if k.kdoc = name then Lru.remove cache k)
      (Lru.to_list cache)
  in
  purge t.compiled;
  purge t.counts

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad_request of string

let find_doc t doc =
  match Registry.find t.registry doc with
  | Some e -> e
  | None -> raise (Bad_request ("unknown document: " ^ doc))

(* Resolve a (doc, query) pair to a ready-to-run compiled query,
   compiling and caching on miss.  Compilation happens under the lock:
   it is query-sized work, and publishing only precompiled values keeps
   concurrent evaluation safe. *)
let compiled_for ?trace t doc query =
  locked t (fun () ->
      let e = find_doc t doc in
      let k = { kdoc = doc; kgen = e.Registry.generation; kquery = query; kconfig = t.config_fp } in
      match Lru.find t.compiled k with
      | Some c ->
        Sxsi_obs.Counter.incr t.metrics.Metrics.compiled_hits;
        (match trace with
        | Some tr -> Sxsi_obs.Trace.set_counter tr "cache_hit" 1
        | None -> ());
        (k, c)
      | None ->
        Sxsi_obs.Counter.incr t.metrics.Metrics.compiled_misses;
        (match trace with
        | Some tr -> Sxsi_obs.Trace.set_counter tr "cache_hit" 0
        | None -> ());
        let c =
          try Engine.prepare ?trace ~optimize:t.opts.optimize e.Registry.doc query with
          | Sxsi_xpath.Xpath_parser.Parse_error (pos, msg) ->
            raise (Bad_request (Printf.sprintf "query parse error at %d: %s" pos msg))
          | Sxsi_auto.Compile.Unsupported msg -> raise (Bad_request ("unsupported query: " ^ msg))
        in
        Engine.precompile ?trace c;
        Lru.add t.compiled k c;
        (k, c))

let count ?budget t doc query =
  let k, c = compiled_for t doc query in
  let cached =
    locked t (fun () ->
        match Lru.find t.counts k with
        | Some n ->
          Sxsi_obs.Counter.incr t.metrics.Metrics.count_hits;
          Some n
        | None ->
          Sxsi_obs.Counter.incr t.metrics.Metrics.count_misses;
          None)
  in
  match cached with
  | Some n -> n
  | None ->
    let n = Engine.count ?budget ~config:(run_config t) c in
    locked t (fun () -> Lru.add t.counts k n);
    n

let select_preorders ?budget t doc query =
  let _, c = compiled_for t doc query in
  Engine.select_preorders ?budget ~config:(run_config t) c

(* The MATERIALIZE output buffer, one per domain and kept across
   requests, so that a reply costs its final string and not a fresh
   buffer grown by doubling.  A request takes it out of the slot while
   it writes, so a second request on the same domain (a systhread) gets
   a buffer of its own.  A buffer grown past [kept_buffer_bytes] is
   shrunk before it goes back, so that one huge reply does not stay
   resident in every domain that served one. *)
let out_buffer : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let kept_buffer_bytes = 16 lsl 20

(* Every selected node is serialized straight into DATA framing: one
   pass from the parentheses to the reply bytes. *)
let materialize ?budget t doc query =
  let _, c = compiled_for t doc query in
  let slot = Domain.DLS.get out_buffer in
  let buf =
    match !slot with
    | Some b ->
      slot := None;
      Buffer.clear b;
      b
    | None -> Buffer.create 4096
  in
  Fun.protect ~finally:(fun () ->
      if Buffer.length buf > kept_buffer_bytes then Buffer.reset buf;
      slot := Some buf)
  @@ fun () ->
  Protocol.add_data_header buf;
  ignore (Engine.serialize_to ?budget ~config:(run_config t) ~framed:true buf c : int);
  Protocol.add_data_trailer buf;
  Protocol.Framed (Buffer.contents buf)

(* One-shot traced evaluation: resolve the compiled query (recording
   parse/compile time and whether the cache hit), then run a traced
   [select_preorders].  Deliberately bypasses the result-count cache —
   the point is to watch the query execute. *)
let trace ?budget t doc query =
  let tr = Sxsi_obs.Trace.create ~label:query () in
  let _, c = compiled_for ~trace:tr t doc query in
  ignore (Engine.select_preorders ?budget ~config:(run_config t) ~trace:tr c);
  tr

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

(* A governance refusal with its wire response already formatted
   (breaker rejections); [handle] unwraps it. *)
exception Rejected of Protocol.response

let breaker_for t doc =
  if t.opts.breaker_threshold <= 0 then None
  else
    Some
      (Mutex.protect t.breakers_lock (fun () ->
           match Hashtbl.find_opt t.breakers doc with
           | Some b -> b
           | None ->
             let b =
               Breaker.create ~threshold:t.opts.breaker_threshold
                 ~cooldown_ms:t.opts.breaker_cooldown_ms ()
             in
             Hashtbl.add t.breakers doc b;
             b))

(* The request budget: session deadline (or the configured default)
   minus whatever the request already spent waiting in its executor's
   queue, plus the configured result/byte caps.  [None] when nothing
   bounds this request. *)
let budget_for t ~deadline_ms ~elapsed_ns =
  let deadline_ms =
    match deadline_ms with Some ms -> ms | None -> t.opts.default_deadline_ms
  in
  let deadline_ns =
    if deadline_ms <= 0 then None
    else Some (Sxsi_obs.Clock.now_ns () + (deadline_ms * 1_000_000) - elapsed_ns)
  in
  let lim n = if n > 0 then Some n else None in
  match (deadline_ns, lim t.opts.max_results, lim t.opts.max_result_bytes) with
  | None, None, None -> None
  | deadline_ns, max_results, max_bytes ->
    Some (Budget.create ?deadline_ns ?max_results ?max_bytes ())

(* Run one query verb under the document's circuit breaker and the
   request budget.  Only a deadline overrun counts as a breaker
   failure — result/byte overruns say the query is oversized, not
   that the document is in trouble. *)
let governed t ~deadline_ms ~elapsed_ns doc f =
  let breaker = breaker_for t doc in
  (match breaker with
  | Some b when not (Breaker.allow b) ->
    Sxsi_obs.Counter.incr t.metrics.Metrics.breaker_rejections;
    raise
      (Rejected
         (Protocol.err
            ~retry_after_ms:(Breaker.retry_after_ms b)
            "BREAKER"
            (Printf.sprintf "document %s suspended after repeated deadline overruns"
               doc)))
  | Some _ | None -> ());
  let budget = budget_for t ~deadline_ms ~elapsed_ns in
  match f budget with
  | v ->
    Option.iter Breaker.success breaker;
    v
  | exception (Budget.Exceeded reason as e) ->
    (match reason with
    | Budget.Deadline -> Option.iter Breaker.failure breaker
    | Budget.Steps | Budget.Results | Budget.Bytes -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let stats t =
  let pool_stats =
    match t.pool with
    | None -> []
    | Some p ->
      let busy = Sxsi_par.Pool.busy_fractions p in
      let mean =
        if busy = [] then 0.0
        else
          List.fold_left (fun acc (_, f) -> acc +. f) 0.0 busy
          /. float_of_int (List.length busy)
      in
      [
        ("pool_tasks", string_of_int (Sxsi_par.Pool.tasks_total p));
        ("pool_steals", string_of_int (Sxsi_par.Pool.steals_total p));
        ("pool_steal_failures", string_of_int (Sxsi_par.Pool.steal_failures_total p));
        ("pool_parks", string_of_int (Sxsi_par.Pool.parks_total p));
        ("pool_cas_retries", string_of_int (Sxsi_par.Pool.cas_retries_total p));
        ("pool_queue_depth_hwm", string_of_int (Sxsi_par.Pool.queue_depth_hwm p));
        ("pool_busy_fraction", Printf.sprintf "%.3f" mean);
        ( "pool_worker_busy",
          String.concat ","
            (List.map (fun (_, f) -> Printf.sprintf "%.3f" f) busy) );
      ]
  in
  locked t (fun () ->
      Metrics.to_assoc t.metrics ~doc_evictions:(Registry.evictions t.registry)
      @ [
          ("documents", string_of_int (Registry.count t.registry));
          ("document_bytes", string_of_int (Registry.total_bytes t.registry));
          ("document_names", String.concat "," (Registry.names t.registry));
          ( "document_backends",
            String.concat ","
              (List.map
                 (fun n ->
                   match Registry.peek t.registry n with
                   | Some e -> n ^ "=" ^ Document.backend_name e.Registry.doc
                   | None -> n ^ "=?")
                 (Registry.names t.registry)) );
          ("compiled_entries", string_of_int (Lru.length t.compiled));
          ("compiled_evictions", string_of_int (Lru.evictions t.compiled));
          ("count_entries", string_of_int (Lru.length t.counts));
          ("count_evictions", string_of_int (Lru.evictions t.counts));
        ]
      @ pool_stats
      @ [ ("optimize", if t.opts.optimize then "1" else "0") ]
      @ List.map
          (fun (k, v) -> (k, string_of_int v))
          (Sxsi_auto.Optimize.counters ())
      @ [
          ("journal_enabled", if J.enabled () then "1" else "0");
          ("journal_records", string_of_int (J.records_total ()));
          ("journal_dropped", string_of_int (J.dropped_total ()));
          ("prof_running", if Sxsi_prof.Prof.running () then "1" else "0");
          ("prof_hz", string_of_int (Sxsi_prof.Prof.hz ()));
        ])

let metrics_text t = locked t (fun () -> Sxsi_obs.Exposition.render t.exposition)

(* The PROFILE payload: one JSON line (schema sxsi-prof-v1), then the
   collapsed-stack lines — both derived from the same window diff. *)
let profile_response since =
  let r = Sxsi_prof.Prof.report ~since () in
  Protocol.Data
    (Sxsi_obs.Json.to_string (Sxsi_prof.Prof.to_json r)
    :: List.filter
         (fun l -> l <> "")
         (String.split_on_char '\n' (Sxsi_prof.Prof.to_folded r)))

let dispatch t ~deadline_ms ~elapsed_ns (req : Protocol.request) : Protocol.response =
  match req with
  | Load { name; path } -> begin
    (* parse/load outside the lock: it is the expensive part *)
    match load_document ?pool:t.pool ?backend:t.opts.backend path with
    | doc ->
      let e =
        locked t (fun () ->
            purge_caches_of t name;
            Registry.add t.registry name doc)
      in
      Protocol.Ok
        [
          "loaded"; name;
          Printf.sprintf "nodes=%d" (Document.node_count doc);
          Printf.sprintf "bytes=%d" e.Registry.bytes;
        ]
    | exception Sys_error msg -> Protocol.Err msg
    | exception Failure msg -> Protocol.Err msg
    | exception Document.Unknown_backend b ->
      Protocol.Err (Printf.sprintf "unknown tree backend %S in %s" b path)
    | exception Xml_parser.Parse_error (pos, msg) ->
      Protocol.Err (Printf.sprintf "XML parse error at %d: %s" pos msg)
  end
  | Count { doc; query } ->
    governed t ~deadline_ms ~elapsed_ns doc (fun budget ->
        Protocol.Ok [ string_of_int (count ?budget t doc query) ])
  | Query { doc; query } ->
    governed t ~deadline_ms ~elapsed_ns doc (fun budget ->
        Protocol.Data
          (Array.to_list (Array.map string_of_int (select_preorders ?budget t doc query))))
  | Materialize { doc; query } ->
    governed t ~deadline_ms ~elapsed_ns doc (fun budget -> materialize ?budget t doc query)
  | Stats -> Protocol.Data (List.map (fun (k, v) -> k ^ "=" ^ v) (stats t))
  | Metrics ->
    let text = metrics_text t in
    Protocol.Data (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
  | Dump ->
    (* the journal dump is one (large) line of JSON: the wire format
       every trace consumer ([sxsi trace-export]) reads *)
    Protocol.Data [ Sxsi_obs.Json.to_string (J.to_json (J.snapshot ())) ]
  | Trace { doc; query } ->
    governed t ~deadline_ms ~elapsed_ns doc (fun budget ->
        Protocol.Data
          [ Sxsi_obs.Json.to_string (Sxsi_obs.Trace.to_json (trace ?budget t doc query)) ])
  | Evict name ->
    locked t (fun () ->
        if Registry.evict t.registry name then begin
          purge_caches_of t name;
          Protocol.Ok [ "evicted"; name ]
        end
        else Protocol.Err ("unknown document: " ^ name))
  | Deadline ms ->
    (* session state lives in the server loop; the service just
       acknowledges so REPL transcripts show the setting took *)
    Protocol.Ok [ "deadline"; (if ms = 0 then "off" else string_of_int ms) ]
  | Profile secs ->
    (* sample the whole process for the window, then answer with the
       JSON report followed by the collapsed-stack lines.  Blocks the
       caller (a repl session); the event-driven front end never routes
       Profile here (it diffs snapshots off a loop timer instead). *)
    Sxsi_prof.Prof.ensure_started ();
    let since = Sxsi_prof.Prof.snapshot () in
    Unix.sleepf (float_of_int secs);
    profile_response since
  | Quit -> Protocol.Ok [ "bye" ]

(* A slow request dumps its reconstructed span tree (this domain's
   journal window since the request started — empty when the flight
   recorder is off) as one JSON line. *)
let slow_log_entry t req resp dt cur =
  match t.slow_log with
  | None -> ()
  | Some log ->
    let open Sxsi_obs.Json in
    let spans = List.map J.span_to_json (J.spans (J.since cur)) in
    let fields =
      [
        ("ts_ns", Int (Sxsi_obs.Clock.now_ns ()));
        ("request", String (Protocol.print_request req));
        ("duration_ms", Float (float_of_int dt /. 1e6));
        ( "status",
          String
            (match resp with
            | Protocol.Err _ -> (
              match Protocol.err_code resp with Some c -> c | None -> "ERR")
            | Protocol.Ok _ | Protocol.Data _ | Protocol.Framed _ -> "OK") );
      ]
    in
    let fields = if spans = [] then fields else fields @ [ ("spans", List spans) ] in
    Sxsi_obs.Slowlog.write log (Obj fields)

let handle ?deadline_ms ?(elapsed_ns = 0) t req =
  let t0 = Sxsi_obs.Clock.now_ns () in
  let cur = J.cursor () in
  J.begin_span J.Service n_request ~ts:t0 ();
  let resp =
    try J.with_span J.Service n_eval (fun () -> dispatch t ~deadline_ms ~elapsed_ns req) with
    | Bad_request msg -> Protocol.Err msg
    | Rejected resp -> resp
    | Budget.Exceeded Budget.Deadline ->
      Sxsi_obs.Counter.incr t.metrics.Metrics.deadline_errors;
      Protocol.err "DEADLINE" "query exceeded its deadline"
    | Budget.Exceeded reason ->
      Sxsi_obs.Counter.incr t.metrics.Metrics.budget_errors;
      Protocol.err "BUDGET" (Budget.reason_name reason ^ " budget exhausted")
    | Sxsi_qos.Failpoint.Injected { site; message } ->
      Protocol.err "INJECTED" (Printf.sprintf "%s (failpoint %s)" message site)
  in
  let dt = Sxsi_obs.Clock.since t0 in
  J.end_span J.Service n_request ~b:dt ();
  Sxsi_obs.Counter.incr t.metrics.Metrics.requests;
  (match resp with
  | Protocol.Err _ -> Sxsi_obs.Counter.incr t.metrics.Metrics.errors
  | _ -> ());
  locked t (fun () -> Metrics.record_latency t.metrics dt);
  if t.opts.slow_ms > 0 && dt >= t.opts.slow_ms * 1_000_000 then
    slow_log_entry t req resp dt cur;
  resp

let handle_line ?deadline_ms ?elapsed_ns t line =
  match J.with_span J.Service n_parse (fun () -> Protocol.parse_request line) with
  | Result.Ok req -> handle ?deadline_ms ?elapsed_ns t req
  | Error msg ->
    Sxsi_obs.Counter.incr t.metrics.Metrics.requests;
    Sxsi_obs.Counter.incr t.metrics.Metrics.errors;
    Protocol.Err msg

(* A request refused before it reaches [dispatch] (oversized line,
   shed connection): count it like any other errored request so the
   rate shows up in metrics. *)
let reject t resp =
  Sxsi_obs.Counter.incr t.metrics.Metrics.requests;
  (match resp with
  | Protocol.Err _ -> Sxsi_obs.Counter.incr t.metrics.Metrics.errors
  | _ -> ());
  resp

let record_admission_wait t ns =
  locked t (fun () -> Metrics.record_admission_wait t.metrics ns)
