(** Cooperative per-request resource budgets.

    A budget bounds a single query evaluation along four axes: wall
    clock (an absolute deadline on the {!Sxsi_obs.Clock} timeline),
    evaluator steps, result cardinality, and output bytes.  Budgets
    are cooperative: hot loops call {!check} once per unit of work,
    and a blown budget surfaces as the typed exception {!Exceeded}
    rather than a truncated result.

    {2 Cost model}

    [check] is one [Atomic.fetch_and_add] on the fast path.  The
    expensive part — reading the clock and comparing against the
    deadline — runs only every [check_every] steps (a power of two,
    default {!val:default_check_every}), plus unconditionally on the
    very first step so a request that arrives already past its
    deadline fails before doing any work.  Result and byte accounting
    ({!add_results}, {!add_bytes}) is exact and checked immediately.

    {2 Tripping}

    Step/result/byte counters are atomics, so a budget may cross
    domains with its request (a front end admits a request on one
    domain and evaluates it on another).  The first check that detects
    an overrun records the {!type:reason} in a [tripped] flag with a
    compare-and-set; every later check on the same budget raises
    [Exceeded] with the {e same} recorded reason, and is counted in
    {!cancelled_chunks_total}.

    {2 Ambient propagation}

    Deep callees (the FM-index search loops) check the budget without
    parameter threading: {!with_ambient} installs a budget in
    domain-local storage for the extent of a callback, and
    {!ambient} reads it back.  [Sxsi_par.Pool.fork] captures the
    forking domain's ambient budget and re-installs it inside the
    task. *)

type reason =
  | Deadline  (** The wall-clock deadline passed. *)
  | Steps  (** The evaluator step budget ran out. *)
  | Results  (** The result-count budget ran out. *)
  | Bytes  (** The output-byte budget ran out. *)
(** Which axis of the budget was exhausted first. *)

exception Exceeded of reason
(** Raised by {!check}, {!add_results} and {!add_bytes} when the
    budget is exhausted, and by every later check on the same budget
    (with the originally recorded reason). *)

val reason_to_string : reason -> string
(** Upper-case wire code for a reason: ["DEADLINE"], ["BUDGET"]...
    Deadline overruns map to ["DEADLINE"]; every other axis maps to
    ["BUDGET"], matching the protocol error codes. *)

val reason_name : reason -> string
(** Lower-case human label: ["deadline"], ["steps"], ["results"],
    ["bytes"]. *)

type t
(** A budget context for one request.  Safe to share across domains. *)

val default_check_every : int
(** Default sampling interval for deadline checks, in steps. *)

val create :
  ?deadline_ns:int ->
  ?max_steps:int ->
  ?max_results:int ->
  ?max_bytes:int ->
  ?check_every:int ->
  unit ->
  t
(** [create ()] with no limits never trips.  [deadline_ns] is an
    absolute {!Sxsi_obs.Clock.now_ns} timestamp.  [check_every] is
    rounded up to a power of two; step-limit enforcement is exact to
    within one sampling interval. *)

val of_limits :
  ?deadline_ms:int ->
  ?max_steps:int ->
  ?max_results:int ->
  ?max_bytes:int ->
  unit ->
  t option
(** Convenience for entry points: builds a budget whose deadline is
    [deadline_ms] milliseconds from now.  Non-positive or absent
    limits are dropped; returns [None] when no limit remains, so
    callers can skip budget plumbing entirely. *)

val deadline_ns : t -> int option
(** The absolute deadline, if any. *)

val remaining_ns : t -> int option
(** Nanoseconds until the deadline, clamped to zero; [None] when the
    budget has no deadline. *)

val check : t -> unit
(** Account one step of work; raise {!Exceeded} if the budget is
    exhausted.  One atomic increment on the fast path; see the cost
    model above. *)

val check_now : t -> unit
(** Like {!check} but forces the deadline comparison regardless of
    sampling.  Entry points call this once before starting work. *)

val add_results : t -> int -> unit
(** Account [n] results; raise {!Exceeded}[ Results] when the total
    passes the result budget.  Exact (not sampled). *)

val add_bytes : t -> int -> unit
(** Account [n] output bytes; raise {!Exceeded}[ Bytes] when the total
    passes the byte budget.  Exact (not sampled). *)

val tripped : t -> reason option
(** The recorded overrun reason, if the budget has tripped. *)

val steps : t -> int
(** Steps accounted so far (across all domains). *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** [with_ambient b f] runs [f] with [b] installed as the calling
    domain's ambient budget, restoring the previous one on exit
    (exceptions included). *)

val ambient : unit -> t option
(** The calling domain's ambient budget, if one is installed. *)

val deadline_exceeded_total : Sxsi_obs.Counter.t
(** Process-wide count of budgets tripped by their deadline. *)

val exceeded_total : Sxsi_obs.Counter.t
(** Process-wide count of budgets tripped for any reason. *)

val cancelled_chunks_total : Sxsi_obs.Counter.t
(** Process-wide count of checks that raised because the budget had
    already tripped, rather than overrunning themselves. *)
