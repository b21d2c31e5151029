(* The resource-governance subsystem: budget semantics (sampling,
   tripping, exact result/byte accounting, ambient propagation across
   pool domains), failpoints, the breaker state machine (driven by a
   fake clock), and the determinism contract — a budget-limited query
   at any pool size either reproduces the unbudgeted result byte for
   byte or raises [Exceeded]; it never returns a truncated answer. *)

open Sxsi_core
open Sxsi_xml
module Budget = Sxsi_qos.Budget
module Failpoint = Sxsi_qos.Failpoint
module Breaker = Sxsi_qos.Breaker
module Pool = Sxsi_par.Pool

(* ------------------------------------------------------------------ *)
(* Budget                                                               *)
(* ------------------------------------------------------------------ *)

let test_budget_unlimited () =
  let b = Budget.create () in
  for _ = 1 to 100_000 do
    Budget.check b
  done;
  Budget.add_results b 1_000_000;
  Budget.add_bytes b 1_000_000;
  Alcotest.(check bool) "never trips" true (Budget.tripped b = None);
  Alcotest.(check int) "steps counted" 100_000 (Budget.steps b)

let expect_exceeded reason f =
  match f () with
  | _ -> Alcotest.fail "expected Exceeded"
  | exception Budget.Exceeded r ->
    Alcotest.(check string) "reason" (Budget.reason_name reason) (Budget.reason_name r)

let test_budget_steps () =
  (* sampled enforcement: exact to within one check_every interval *)
  let b = Budget.create ~max_steps:100 ~check_every:8 () in
  expect_exceeded Budget.Steps (fun () ->
      for _ = 1 to 1_000 do
        Budget.check b
      done);
  Alcotest.(check bool) "within a sampling interval" true (Budget.steps b <= 100 + 16);
  (* tripped budgets keep raising the recorded reason at the next
     sampled check *)
  expect_exceeded Budget.Steps (fun () ->
      for _ = 1 to 16 do
        Budget.check b
      done);
  Alcotest.(check bool) "tripped recorded" true (Budget.tripped b = Some Budget.Steps)

let test_budget_expired_deadline_fails_fast () =
  let b = Budget.create ~deadline_ns:(Sxsi_obs.Clock.now_ns () - 1) () in
  (* the very first check slow-paths, so no work happens at all *)
  expect_exceeded Budget.Deadline (fun () -> Budget.check b);
  Alcotest.(check (option int)) "no time remaining" (Some 0) (Budget.remaining_ns b)

let test_budget_results_and_bytes_exact () =
  let b = Budget.create ~max_results:10 () in
  Budget.add_results b 10;
  expect_exceeded Budget.Results (fun () -> Budget.add_results b 1);
  let b = Budget.create ~max_bytes:100 () in
  Budget.add_bytes b 100;
  expect_exceeded Budget.Bytes (fun () -> Budget.add_bytes b 1)

let test_of_limits () =
  Alcotest.(check bool) "no limits, no budget" true (Budget.of_limits () = None);
  Alcotest.(check bool) "non-positive limits dropped" true
    (Budget.of_limits ~deadline_ms:0 ~max_results:(-1) () = None);
  match Budget.of_limits ~deadline_ms:10_000 ~max_results:5 () with
  | None -> Alcotest.fail "expected a budget"
  | Some b ->
    Alcotest.(check bool) "deadline set" true (Budget.deadline_ns b <> None);
    Budget.add_results b 5;
    expect_exceeded Budget.Results (fun () -> Budget.add_results b 1)

let test_ambient () =
  (* physical identity: structurally all fresh budgets look alike *)
  let is_amb b = match Budget.ambient () with Some x -> x == b | None -> false in
  Alcotest.(check bool) "no ambient by default" true (Budget.ambient () = None);
  let b1 = Budget.create () and b2 = Budget.create () in
  Budget.with_ambient b1 (fun () ->
      Alcotest.(check bool) "installed" true (is_amb b1);
      Budget.with_ambient b2 (fun () ->
          Alcotest.(check bool) "nested" true (is_amb b2));
      Alcotest.(check bool) "restored after nesting" true (is_amb b1));
  Alcotest.(check bool) "restored" true (Budget.ambient () = None);
  (* exceptional exit restores too *)
  (try Budget.with_ambient b1 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored on raise" true (Budget.ambient () = None)

let test_ambient_crosses_pool () =
  Pool.with_pool ~name:"qos-test" ~domains:2 (fun p ->
      let b = Budget.create ~max_steps:1 ~check_every:1 () in
      Budget.with_ambient b (fun () ->
          let seen =
            Pool.await p
              (Pool.fork p (fun () ->
                   match Budget.ambient () with
                   | Some b' -> b' == b
                   | None -> false))
          in
          Alcotest.(check bool) "forked task sees the forker's budget" true seen);
      (* a task that blows the shared budget raises Exceeded at await *)
      Budget.with_ambient b (fun () ->
          expect_exceeded Budget.Steps (fun () ->
              Pool.await p
                (Pool.fork p (fun () ->
                     let b = Option.get (Budget.ambient ()) in
                     for _ = 1 to 100 do
                       Budget.check b
                     done)))))

(* ------------------------------------------------------------------ *)
(* Failpoint                                                            *)
(* ------------------------------------------------------------------ *)

let with_clean_failpoints f =
  Fun.protect ~finally:Failpoint.deactivate_all f

let test_failpoint_basics () =
  with_clean_failpoints (fun () ->
      let s = Failpoint.site "test.basic" in
      Failpoint.hit s;  (* inactive: no-op *)
      Failpoint.activate "test.basic" Failpoint.Fail;
      (match Failpoint.hit s with
      | () -> Alcotest.fail "expected Injected"
      | exception Failpoint.Injected { site; _ } ->
        Alcotest.(check string) "site name" "test.basic" site);
      Failpoint.activate "test.basic" (Failpoint.Return_err "custom message");
      (match Failpoint.hit s with
      | () -> Alcotest.fail "expected Injected"
      | exception Failpoint.Injected { message; _ } ->
        Alcotest.(check string) "message" "custom message" message);
      Failpoint.deactivate "test.basic";
      Failpoint.hit s)

let test_failpoint_delay () =
  with_clean_failpoints (fun () ->
      let s = Failpoint.site "test.delay" in
      Failpoint.activate "test.delay" (Failpoint.Delay_ms 30);
      let t0 = Unix.gettimeofday () in
      Failpoint.hit s;
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "slept at least 30ms" true (dt >= 0.025))

let test_failpoint_spec () =
  with_clean_failpoints (fun () ->
      (match Failpoint.activate_spec "a=fail;b=delay:5;c=err:oops" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "three armed" 3 (List.length (Failpoint.active ()));
      Alcotest.(check bool) "bad spec refused" true
        (match Failpoint.activate_spec "a=explode" with Error _ -> true | Ok () -> false);
      Alcotest.(check bool) "bad delay refused" true
        (match Failpoint.activate_spec "a=delay:xyz" with Error _ -> true | Ok () -> false);
      Failpoint.deactivate_all ();
      Alcotest.(check int) "all disarmed" 0 (List.length (Failpoint.active ())))

(* ------------------------------------------------------------------ *)
(* Breaker (under a fake clock, so transitions are deterministic)       *)
(* ------------------------------------------------------------------ *)

(* Drive the breaker on a hand-cranked clock, reinstalling the default
   wall-clock-derived source afterwards (there is no getter). *)
let with_fake_clock f =
  let t = ref 1_000_000_000 in
  Fun.protect
    ~finally:(fun () ->
      Sxsi_obs.Clock.set_source (fun () ->
          int_of_float (Unix.gettimeofday () *. 1e9)))
    (fun () ->
      Sxsi_obs.Clock.set_source (fun () -> !t);
      f (fun ms -> t := !t + (ms * 1_000_000)))

let test_breaker_state_machine () =
  with_fake_clock (fun advance_ms ->
      let b = Breaker.create ~threshold:2 ~cooldown_ms:100 () in
      Alcotest.(check bool) "closed allows" true (Breaker.allow b);
      Breaker.failure b;
      Alcotest.(check bool) "one failure below threshold" true (Breaker.allow b);
      Breaker.success b;
      Breaker.failure b;
      Alcotest.(check bool) "success reset the count" true (Breaker.allow b);
      Breaker.failure b;
      (* two consecutive: open *)
      Alcotest.(check bool) "open refuses" false (Breaker.allow b);
      Alcotest.(check bool) "is_open" true (Breaker.is_open b);
      Alcotest.(check bool) "retry hint positive" true (Breaker.retry_after_ms b > 0);
      advance_ms 50;
      Alcotest.(check bool) "still open mid-cooldown" false (Breaker.allow b);
      advance_ms 60;
      (* cooled down: exactly one half-open probe *)
      Alcotest.(check bool) "probe admitted" true (Breaker.allow b);
      Alcotest.(check bool) "second probe refused" false (Breaker.allow b);
      Breaker.failure b;
      Alcotest.(check bool) "failed probe reopens" false (Breaker.allow b);
      advance_ms 110;
      Alcotest.(check bool) "probe again" true (Breaker.allow b);
      Breaker.success b;
      Alcotest.(check bool) "successful probe closes" true (Breaker.allow b);
      Alcotest.(check bool) "closed again" false (Breaker.is_open b))

(* ------------------------------------------------------------------ *)
(* Engine under budget                                                  *)
(* ------------------------------------------------------------------ *)

let mid_doc =
  lazy
    (let buf = Buffer.create 4096 in
     Buffer.add_string buf "<root>";
     for i = 0 to 499 do
       Buffer.add_string buf
         (Printf.sprintf "<item id=\"i%d\"><name>name%d</name><v>%d</v></item>" i i i)
     done;
     Buffer.add_string buf "</root>";
     Document.of_xml (Buffer.contents buf))

let test_engine_budget_steps () =
  let doc = Lazy.force mid_doc in
  (* a predicate forces a real scan: bare "//item" hits the Collect
     jump shortcut and does (correctly) almost no budgeted work *)
  let c = Engine.prepare doc "//item[v]" in
  (* generous budget: identical to the unbudgeted run *)
  let expected = Engine.count c in
  let b = Budget.create ~max_steps:10_000_000 () in
  Alcotest.(check int) "generous budget changes nothing" expected
    (Engine.count ~budget:b c);
  (* starved budget: typed failure, not a wrong count *)
  let b = Budget.create ~max_steps:10 ~check_every:1 () in
  expect_exceeded Budget.Steps (fun () -> Engine.count ~budget:b c)

let test_engine_budget_results () =
  let doc = Lazy.force mid_doc in
  let c = Engine.prepare doc "//item" in
  let b = Budget.create ~max_results:10 () in
  expect_exceeded Budget.Results (fun () -> Engine.select ~budget:b c)

let test_engine_budget_bytes () =
  let doc = Lazy.force mid_doc in
  let c = Engine.prepare doc "//item" in
  let b = Budget.create ~max_bytes:64 () in
  expect_exceeded Budget.Bytes (fun () ->
      Engine.serialize_to ~budget:b (Buffer.create 256) c)

let test_engine_expired_deadline_no_work () =
  let doc = Lazy.force mid_doc in
  let c = Engine.prepare doc "//item" in
  let b = Budget.create ~deadline_ns:(Sxsi_obs.Clock.now_ns () - 1) () in
  (* check_now runs before evaluation starts *)
  expect_exceeded Budget.Deadline (fun () -> Engine.count ~budget:b c)

(* ------------------------------------------------------------------ *)
(* Determinism: complete and identical, or Exceeded — never truncated   *)
(* ------------------------------------------------------------------ *)

let big_xml =
  lazy
    (let buf = Buffer.create (1 lsl 17) in
     Buffer.add_string buf "<root>";
     for i = 0 to 1999 do
       Buffer.add_string buf
         (Printf.sprintf
            "<item id=\"i%d\"><name>name%d</name><desc>payload number %d</desc>%s</item>"
            i i i
            (if i mod 7 = 0 then "<flag/>" else ""))
     done;
     Buffer.add_string buf "</root>";
     Buffer.contents buf)

(* For one query and one step limit: the budgeted run either
   reproduces the oracle byte for byte or raises Exceeded.  A partial
   (truncated but non-raising) answer fails the test. *)
let test_budget_differential () =
  let doc = Document.of_xml (Lazy.force big_xml) in
  List.iter
    (fun query ->
      let c = Engine.prepare doc query in
      let oracle_ids = Array.to_list (Engine.select_preorders c) in
      let oracle_bytes =
        let buf = Buffer.create 256 in
        ignore (Engine.serialize_to buf c);
        Buffer.contents buf
      in
      List.iter
        (fun max_steps ->
          let label = Printf.sprintf "%s steps=%d" query max_steps in
          (match
             let b = Budget.create ~max_steps ~check_every:64 () in
             Array.to_list (Engine.select_preorders ~budget:b c)
           with
          | ids -> Alcotest.(check (list int)) (label ^ " ids identical") oracle_ids ids
          | exception Budget.Exceeded _ -> ());
          match
            let b = Budget.create ~max_steps ~check_every:64 () in
            let buf = Buffer.create 256 in
            ignore (Engine.serialize_to ~budget:b buf c);
            Buffer.contents buf
          with
          | bytes -> Alcotest.(check string) (label ^ " bytes identical") oracle_bytes bytes
          | exception Budget.Exceeded _ -> ())
        [ 1; 10; 100; 1_000; 100_000; 10_000_000 ])
    [ "//item"; "//item[flag]"; "//name[contains(., '9')]"; "//nonexistent" ]

(* The starved end must actually trip (otherwise the differential above
   proves nothing), and the generous end must actually complete. *)
let test_budget_differential_ends () =
  let doc = Document.of_xml (Lazy.force big_xml) in
  let c = Engine.prepare doc "//item" in
  let oracle = Engine.count c in
  let b = Budget.create ~max_steps:1 ~check_every:1 () in
  expect_exceeded Budget.Steps (fun () -> Engine.count ~budget:b c);
  let b = Budget.create ~max_steps:100_000_000 () in
  Alcotest.(check int) "generous completes" oracle (Engine.count ~budget:b c)

let suite =
  ( "qos",
    [
      Alcotest.test_case "budget: unlimited" `Quick test_budget_unlimited;
      Alcotest.test_case "budget: step limit" `Quick test_budget_steps;
      Alcotest.test_case "budget: expired deadline fails fast" `Quick
        test_budget_expired_deadline_fails_fast;
      Alcotest.test_case "budget: results and bytes exact" `Quick
        test_budget_results_and_bytes_exact;
      Alcotest.test_case "budget: of_limits" `Quick test_of_limits;
      Alcotest.test_case "budget: ambient install/restore" `Quick test_ambient;
      Alcotest.test_case "budget: ambient crosses the pool" `Quick
        test_ambient_crosses_pool;
      Alcotest.test_case "failpoint: basics" `Quick test_failpoint_basics;
      Alcotest.test_case "failpoint: delay" `Quick test_failpoint_delay;
      Alcotest.test_case "failpoint: spec parsing" `Quick test_failpoint_spec;
      Alcotest.test_case "breaker: state machine" `Quick test_breaker_state_machine;
      Alcotest.test_case "engine: step budget" `Quick test_engine_budget_steps;
      Alcotest.test_case "engine: result budget" `Quick test_engine_budget_results;
      Alcotest.test_case "engine: byte budget" `Quick test_engine_budget_bytes;
      Alcotest.test_case "engine: expired deadline does no work" `Quick
        test_engine_expired_deadline_no_work;
      Alcotest.test_case "determinism: identical or Exceeded at any step limit" `Slow
        test_budget_differential;
      Alcotest.test_case "determinism: both ends reachable" `Quick
        test_budget_differential_ends;
    ] )
