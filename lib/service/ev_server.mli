(** The TCP front end: a single non-blocking loop domain owning every
    socket, one executor domain per {!Shards} shard owning that shard's
    {!Service.t}.

    {ul
    {- {b Pipelining.}  Clients may send many requests without reading
       responses; each connection keeps a FIFO of response slots and
       only the completed prefix is flushed, so responses come back in
       request order and a partial write never interleaves two
       responses.}
    {- {b Single-flight coalescing.}  Identical in-flight lookups
       ([QUERY]/[COUNT]/[MATERIALIZE] with the same document, query
       and effective deadline) evaluate once; the other submitters
       receive the leader's response — errors included — and are
       accounted as requests.  A [LOAD] or [EVICT] seals the
       document's in-flight entries so coalescing never crosses a
       mutation.}
    {- {b Backpressure.}  A connection whose write buffer exceeds the
       high-water mark stops being read from until it drains.}
    {- {b Load shedding.}  Beyond [max_conns] open connections, a new
       connection is sent [ERR SHED ... retry-after-ms=<n>] and
       closed.}
    {- {b Idle timeout.}  With [idle_ms > 0], a connection with no
       read activity and nothing in flight for that long is sent
       [ERR IDLE ...] and closed.}
    {- {b Deadline charging.}  Time a request spends queued for its
       shard executor is charged against its deadline and recorded in
       the admission-wait histogram.}}

    Responses: with one shard, every response is rendered by
    {!Service.handle_line}, as in {!Server.session} ([STATS] gains
    trailing [ev_*] keys).  With several shards, [STATS] and [METRICS]
    aggregate across shards ({!Shards.stats}). *)

val serve :
  ?host:string ->
  ?backlog:int ->
  ?max_line:int ->
  ?high_water:int ->
  ?idle_ms:int ->
  ?max_conns:int ->
  ?sndbuf:int ->
  ?on_listen:(int -> unit) ->
  ?stop:(unit -> bool) ->
  port:int ->
  Shards.t ->
  unit
(** [serve ~port shards] binds [host] (default ["127.0.0.1"]) on
    [port] ([0] picks an ephemeral port, reported through [on_listen])
    and turns the event loop until [stop ()] returns [true] (checked
    at least every 200ms).  On return the listener and every
    connection are closed, every executor domain joined, and the
    calling domain's profiler slot retired
    ({!Sxsi_obs.Journal.retire_slot}).

    [max_line] bounds a request line ({!Server.default_max_line});
    longer lines are drained and answered [ERR TOOLONG].  [high_water]
    (default 256 KiB) is the per-connection write-buffer backpressure
    threshold.  [idle_ms] (default [0]: off) closes idle connections
    with [ERR IDLE].  [max_conns] (default 1024) sheds further
    connections with [ERR SHED ... retry-after-ms=<n>].  [sndbuf]
    sets [SO_SNDBUF] on accepted sockets — a test hook for forcing
    partial writes. *)
