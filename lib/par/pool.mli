(** A shared, bounded work-stealing domain pool: the parallel execution
    substrate under parallel index construction ({!Sxsi_xml.Document}
    with [~pool]).  Queries do not use it: each evaluates on the domain
    that received it.

    A pool of size [d] uses at most [d] domains at a time: [d - 1]
    spawned worker domains plus whichever domain is currently waiting on
    one of the pool's results (callers help execute queued tasks while
    they wait, so a pool of size 1 spawns nothing and runs every task
    inline — the sequential semantics by construction).

    Each participating domain owns a task queue; a domain out of local
    work steals from the others.  Tasks may fork and await further tasks
    ([fork_join] nests arbitrarily); an exception raised inside a task
    is caught, carried across the pool boundary and re-raised (with its
    backtrace) at the point where the task's result is demanded.

    All combinators are deterministic in their results: [map_reduce]
    and [map_array] combine per-chunk results in index order, so for a
    pure [f] and associative [combine] the outcome is byte-for-byte the
    sequential one regardless of pool size or scheduling. *)

type t

val create : ?name:string -> domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains.
    [domains] is clamped to at least 1.  [name] is used in metric help
    strings only. *)

val shutdown : t -> unit
(** Drain queued tasks, stop the workers and join them.  Idempotent.
    Callers must have awaited their promises first; forking into a pool
    after [shutdown] raises [Invalid_argument]. *)

val with_pool : ?name:string -> domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val size : t -> int
(** The configured number of domains (always [>= 1]). *)

val default_domains : unit -> int
(** The [SXSI_DOMAINS] environment variable (clamped to [1..128]), or
    [1] when unset or unparsable — parallelism is strictly opt-in. *)

(** {1 Tasks} *)

type 'a promise

val fork : t -> (unit -> 'a) -> 'a promise
(** Queue [f] for execution on any of the pool's domains.  The
    forking domain's ambient {!Sxsi_qos.Budget} (if any) is captured
    and re-installed inside the task, so budget checks in forked work
    charge — and are cancelled by — the originating request. *)

val await : t -> 'a promise -> 'a
(** Block until the promise resolves, executing other queued tasks
    while waiting.  Re-raises the task's exception, if any. *)

val fork_join : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [fork_join p f g] runs [g] as a pool task and [f] inline, and
    returns both results.  If both raise, [f]'s exception wins. *)

val map_reduce :
  t -> ?chunks:int -> ('a -> 'b) -> ('b -> 'b -> 'b) -> 'b -> 'a array -> 'b
(** [map_reduce p f combine init arr] is
    [Array.fold_left (fun acc x -> combine acc (f x)) init arr] with the
    array split into [chunks] (default: enough for the pool) slices
    mapped in parallel.  Per-chunk results are combined left-to-right in
    index order, so the result equals the sequential fold whenever
    [combine] is associative. *)

val map_array : t -> ?chunks:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; element order is preserved. *)

val parallel_range : t -> ?chunks:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_range p ~lo ~hi body] partitions [\[lo, hi)] into chunks
    and runs [body chunk_lo chunk_hi] on each in parallel.  The caller
    must ensure the chunks touch disjoint state. *)

(** {1 Observability} *)

val tasks_total : t -> int
(** Tasks executed since creation. *)

val steals_total : t -> int
(** Tasks taken from another domain's queue. *)

val steal_failures_total : t -> int
(** Steal scans that found every queue empty — each one is a domain
    spinning through [size] locks for nothing, the cost the profiler's
    contention view attributes to starvation. *)

val parks_total : t -> int
(** Times any domain slept on the pool condition (summed over
    slots). *)

val cas_retries_total : t -> int
(** CAS races lost while bumping the queue high-water mark — a proxy
    for how hard concurrent pushes hammer the shared counters. *)

val worker_stats : t -> (int * int * int * int) list
(** Per slot: [(slot, busy_ns, steals, parks)].  Slot [0] is the
    submitting/awaiting domain.  What the bench baseline records to
    show where a non-scaling pool's time goes. *)

val queue_depth : t -> int
(** Tasks currently queued and not yet started (a point-in-time
    gauge). *)

val queue_depth_hwm : t -> int
(** The largest {!queue_depth} ever observed by a push — how far the
    pool fell behind at its worst. *)

val busy_fractions : t -> (int * float) list
(** Per slot (slot [0] is the submitting/awaiting domain, [1..size-1]
    the spawned workers): the fraction of the pool's lifetime that
    slot has spent executing tasks, in [\[0, 1\]].  Maintained by
    always-on atomic counters — no flight recorder required. *)

val register_metrics : ?prefix:string -> t -> Sxsi_obs.Exposition.t -> unit
(** Register [<prefix>_tasks_total], [<prefix>_steals_total],
    [<prefix>_steal_failures_total], [<prefix>_cas_retries_total],
    [<prefix>_parks_total], [<prefix>_queue_depth],
    [<prefix>_queue_depth_hwm], [<prefix>_domains] and the per-slot
    [<prefix>_worker_busy_fraction] gauge family (default prefix
    ["sxsi_pool"]) on an exposition.

    When the flight recorder is enabled ({!Sxsi_obs.Journal}), the
    pool additionally journals every task as a [pool/task] span on the
    executing domain, steals as [pool/steal] instants and idle parking
    as [pool/park] spans. *)
