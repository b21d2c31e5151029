(** Per-service monotonic counters and the request-latency histogram,
    reported by the [STATS] and [METRICS] requests.

    Counters are atomic and safe to bump from any domain; the latency
    and admission-wait {!Sxsi_obs.Histogram.t}s are not synchronized
    and must only be touched under the service lock.  Latency is
    recorded in integer nanoseconds, so the cumulative total no longer
    loses precision the way summing small [float] seconds did. *)

type t = {
  requests : Sxsi_obs.Counter.t;        (** requests handled, including errors *)
  errors : Sxsi_obs.Counter.t;          (** requests answered with ERR *)
  compiled_hits : Sxsi_obs.Counter.t;   (** compiled-query cache hits *)
  compiled_misses : Sxsi_obs.Counter.t;
  count_hits : Sxsi_obs.Counter.t;      (** result-count cache hits *)
  count_misses : Sxsi_obs.Counter.t;
  connections_opened : Sxsi_obs.Counter.t;  (** connections accepted into a session *)
  connections_closed : Sxsi_obs.Counter.t;  (** sessions finished (any reason) *)
  connections_shed : Sxsi_obs.Counter.t;    (** connections refused: connection limit reached *)
  deadline_errors : Sxsi_obs.Counter.t;     (** requests answered [ERR DEADLINE] *)
  budget_errors : Sxsi_obs.Counter.t;       (** requests answered [ERR BUDGET] *)
  breaker_rejections : Sxsi_obs.Counter.t;  (** requests refused by an open breaker *)
  latency : Sxsi_obs.Histogram.t;       (** per-request latency, nanoseconds *)
  admission_wait : Sxsi_obs.Histogram.t;
      (** per-request executor-queue wait, nanoseconds *)
}

val create : unit -> t
(** All counters at zero, empty histograms. *)

val record_latency : t -> int -> unit
(** Record one request's latency in nanoseconds (caller holds the
    service lock). *)

val record_admission_wait : t -> int -> unit
(** Record one request's executor-queue wait in nanoseconds (caller
    holds the service lock). *)

val to_assoc : t -> doc_evictions:int -> (string * string) list
(** Stable key/value rendering for the [STATS] response.  The key set
    of the pre-histogram implementation is preserved ([requests],
    [errors], [compiled_hits], [compiled_misses], [count_hits],
    [count_misses], [doc_evictions], [latency_ms_total] — the latter
    now derived exactly from the histogram sum) and extended with
    [latency_p50_ms], [latency_p95_ms], [latency_p99_ms], the
    connection counters [connections_opened], [connections_closed],
    [connections_shed], the governance counters [deadline_errors],
    [budget_errors], [breaker_rejections], and the admission-wait
    aggregates [admission_wait_ms_total], [admission_wait_p95_ms]. *)
