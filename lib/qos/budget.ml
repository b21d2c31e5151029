module Clock = Sxsi_obs.Clock
module Counter = Sxsi_obs.Counter
module J = Sxsi_obs.Journal

let n_trip = J.name "qos/budget_trip"
let n_cancel = J.name "qos/budget_cancel"

type reason = Deadline | Steps | Results | Bytes

let reason_index = function Deadline -> 0 | Steps -> 1 | Results -> 2 | Bytes -> 3

exception Exceeded of reason

let reason_to_string = function
  | Deadline -> "DEADLINE"
  | Steps | Results | Bytes -> "BUDGET"

let reason_name = function
  | Deadline -> "deadline"
  | Steps -> "steps"
  | Results -> "results"
  | Bytes -> "bytes"

type t = {
  deadline_ns : int option;
  max_steps : int option;
  max_results : int option;
  max_bytes : int option;
  mask : int;                       (* check_every - 1; check_every is 2^k *)
  steps : int Atomic.t;
  results : int Atomic.t;
  bytes : int Atomic.t;
  tripped : reason option Atomic.t;
}

let default_check_every = 1024

let deadline_exceeded_total = Counter.create ()
let exceeded_total = Counter.create ()
let cancelled_chunks_total = Counter.create ()

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?deadline_ns ?max_steps ?max_results ?max_bytes
    ?(check_every = default_check_every) () =
  let check_every = round_pow2 (max 1 check_every) in
  {
    deadline_ns;
    max_steps;
    max_results;
    max_bytes;
    mask = check_every - 1;
    steps = Atomic.make 0;
    results = Atomic.make 0;
    bytes = Atomic.make 0;
    tripped = Atomic.make None;
  }

let pos = function Some n when n > 0 -> Some n | Some _ | None -> None

let of_limits ?deadline_ms ?max_steps ?max_results ?max_bytes () =
  let deadline_ns =
    match pos deadline_ms with
    | None -> None
    | Some ms -> Some (Clock.now_ns () + (ms * 1_000_000))
  in
  let max_steps = pos max_steps
  and max_results = pos max_results
  and max_bytes = pos max_bytes in
  match (deadline_ns, max_steps, max_results, max_bytes) with
  | None, None, None, None -> None
  | _ -> Some (create ?deadline_ns ?max_steps ?max_results ?max_bytes ())

let deadline_ns t = t.deadline_ns

let remaining_ns t =
  match t.deadline_ns with
  | None -> None
  | Some d -> Some (max 0 (d - Clock.now_ns ()))

let tripped t = Atomic.get t.tripped
let steps t = Atomic.get t.steps

(* First overrun wins: record it and raise; a loser (or any later
   check observing the flag) raises the recorded reason and counts as
   a cooperative cancellation. *)
let trip t reason =
  if Atomic.compare_and_set t.tripped None (Some reason) then begin
    Counter.incr exceeded_total;
    if reason = Deadline then Counter.incr deadline_exceeded_total;
    J.instant J.Qos n_trip ~a:(reason_index reason) ();
    raise (Exceeded reason)
  end
  else
    match Atomic.get t.tripped with
    | Some r ->
      Counter.incr cancelled_chunks_total;
      J.instant J.Qos n_cancel ~a:(reason_index r) ();
      raise (Exceeded r)
    | None -> assert false            (* tripped is never reset *)

let slow_check t =
  (match Atomic.get t.tripped with
  | Some r ->
    Counter.incr cancelled_chunks_total;
    J.instant J.Qos n_cancel ~a:(reason_index r) ();
    raise (Exceeded r)
  | None -> ());
  (match t.max_steps with
  | Some m when Atomic.get t.steps > m -> trip t Steps
  | Some _ | None -> ());
  match t.deadline_ns with
  | Some d when Clock.now_ns () > d -> trip t Deadline
  | Some _ | None -> ()

let check t =
  let n = Atomic.fetch_and_add t.steps 1 in
  if n land t.mask = 0 then slow_check t

let check_now t =
  Atomic.incr t.steps;
  slow_check t

let add_results t n =
  match t.max_results with
  | None -> ()
  | Some m ->
    let total = Atomic.fetch_and_add t.results n + n in
    if total > m then trip t Results

let add_bytes t n =
  match t.max_bytes with
  | None -> ()
  | Some m ->
    let total = Atomic.fetch_and_add t.bytes n + n in
    if total > m then trip t Bytes

(* Ambient budget: one slot per domain, saved/restored around the
   callback so nested installs (re-entrant engine calls) unwind. *)
let ambient_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_ambient b f =
  let slot = Domain.DLS.get ambient_key in
  let prev = !slot in
  slot := Some b;
  Fun.protect ~finally:(fun () -> slot := prev) f

let ambient () = !(Domain.DLS.get ambient_key)
