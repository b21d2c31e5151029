(** Public query interface of SXSI: parse/compile once, then count,
    materialize or serialize, with the evaluation strategy of §6.6:
    selective single-text predicates of the right shape, and
    [contains(., P)] over string-values, run bottom-up from the text
    index; everything else runs the top-down automaton.

    Custom predicates (the [PSSM(...)] hook of §6.7) are supplied
    through a {!Run.text_funs} registry. *)

type compiled

type strategy = Auto | Top_down | Bottom_up

val prepare :
  ?trace:Sxsi_obs.Trace.t -> ?optimize:bool -> Sxsi_xml.Document.t -> string -> compiled
(** Parse and compile a Core+ query against a document.  With [trace],
    parsing time is recorded in its [Parse] phase.  [optimize] is
    passed to {!Sxsi_auto.Compile.compile}: whether the whole-query
    {!Sxsi_auto.Optimize} pass runs over the compiled automaton
    (default: on, unless [SXSI_OPTIMIZE] says otherwise).  Each
    optimized compilation also drops an [engine/optimize] instant
    event in the flight recorder, carrying the state counts
    before/after.
    @raise Sxsi_xpath.Xpath_parser.Parse_error on syntax errors.
    @raise Sxsi_auto.Compile.Unsupported on unsupported constructs. *)

val prepare_path :
  ?optimize:bool -> Sxsi_xml.Document.t -> Sxsi_xpath.Ast.path -> compiled

val precompile : ?trace:Sxsi_obs.Trace.t -> compiled -> unit
(** Force the automaton of every union branch now.  Compilation is
    otherwise lazy and not safe to trigger from several domains at
    once; a compiled value shared across domains (the service layer's
    query cache) must be precompiled first.  With [trace], the forcing
    time lands in the [Compile] phase (near zero when already
    forced). *)

val automaton : compiled -> Sxsi_auto.Automaton.t
val bottom_up_plan : compiled -> Bottom_up.plan option

val chosen_strategy :
  ?funs:Run.text_funs -> ?strategy:strategy -> compiled -> [ `Top_down | `Bottom_up ]
(** The strategy [Auto] resolves to, following the paper's rule: a
    bottom-up-shaped query runs bottom-up when the text predicate
    selects fewer texts than the rarest step tag occurs.  A string-value
    [contains] counts its straddle tails as selected texts too. *)

(** {1 Evaluation}

    Every entry point evaluates the whole query on the calling domain.

    Every entry point takes an optional [trace].  When present, the
    evaluation is instrumented: any pending compilation is forced under
    the [Compile] phase, the evaluation itself is timed as [Run]
    (materialization steps as [Materialize]), fresh FM-index and
    tag-index probes are installed for the duration of the call, and
    the trace gains the counters [visited], [marked], [jumps],
    [memo_hits] (run statistics, reported as deltas even for a reused
    [config]), [fm_search_calls], [fm_search_steps], [fm_locate_calls],
    [fm_locate_steps], [fm_extract_calls], [tag_jumps], [tag_reads]
    (probe readings), [results], and — for single-branch queries —
    [bottom_up] (1 when the bottom-up strategy ran).  Probe readings
    are approximate when other domains evaluate concurrently.  Without
    [trace] the only cost left in the hot paths is a disabled probe
    check: one atomic load and branch per FM or tag-jump call.

    Every entry point also takes an optional
    [budget] ({!Sxsi_qos.Budget.t}).  When present the deadline is
    checked once up front (a request that already blew it fails before
    doing work), the budget is installed ambiently so FM-index loops
    charge it, every evaluator step calls the sampled
    {!Sxsi_qos.Budget.check}, [select]/[select_preorders] charge the
    result count against the budget's result limit, and [serialize_to]
    charges serialized bytes against its byte limit.  A blown budget
    raises {!Sxsi_qos.Budget.Exceeded}; results are never truncated —
    the caller gets the complete answer or the exception.  Each entry
    point also triggers the ["engine.eval"]
    {!Sxsi_qos.Failpoint} site first, for fault-injection tests. *)

val count :
  ?budget:Sxsi_qos.Budget.t ->
  ?config:Run.config -> ?funs:Run.text_funs -> ?strategy:strategy ->
  ?trace:Sxsi_obs.Trace.t -> compiled -> int

val select :
  ?budget:Sxsi_qos.Budget.t ->
  ?config:Run.config -> ?funs:Run.text_funs -> ?strategy:strategy ->
  ?trace:Sxsi_obs.Trace.t -> compiled -> int array
(** Selected node positions in document order. *)

val select_preorders :
  ?budget:Sxsi_qos.Budget.t ->
  ?config:Run.config -> ?funs:Run.text_funs -> ?strategy:strategy ->
  ?trace:Sxsi_obs.Trace.t -> compiled -> int array
(** Global identifiers (preorders) of the selected nodes. *)

val serialize_to :
  ?budget:Sxsi_qos.Budget.t ->
  ?config:Run.config -> ?funs:Run.text_funs -> ?strategy:strategy ->
  ?trace:Sxsi_obs.Trace.t -> ?framed:bool -> Buffer.t -> compiled -> int
(** Materialize and serialize every result into the buffer with
    {!Sxsi_xml.Document.serialize_into} (its [framed] option writes
    each result as dot-stuffed DATA payload lines); returns the number
    of results.  The budget's byte limit is charged as bytes are
    written, so an oversized answer fails before it is complete. *)
