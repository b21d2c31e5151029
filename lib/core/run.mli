(** The SXSI execution engine: evaluation of a marking tree automaton
    over the succinct document (Figure 5 of the paper), with the §5.4-5.5
    optimizations:

    - per-(state-set, label) memoization of transition analysis (the
      "just-in-time compilation" of §5.5.2);
    - jumping to the next relevant node with [TaggedDesc]-style moves
      when a single recursive scanning state is active (§5.4.1);
    - constant-time collection of whole tagged ranges, in both counting
      and materialization mode (the counters and lazy result sets of
      §5.5.3-4);
    - generalized jumps over the per-state jump sets the
      {!Sxsi_auto.Optimize} pass attaches ([Automaton.jump_set]): a
      recursive scan whose guard covers several tags (e.g. [//*]
      restricted to the labels that can actually fire) is driven by a
      merged multi-tag frontier of [Tag_index] cursors instead of a
      node-by-node walk, and a non-recursive ([child::] /
      [following-sibling::]) scan probes exactly the sibling positions
      carrying a jump-set tag, skipping whole subtrees between them.
      Each scan first narrows its tag set with the §5.5.6
      relative-tag tables: a sibling scan to the tags its parent can
      have as children, a recursive scan (the single-tag §5.4.1 scans
      included) to the tags that can occur below its region's root.
      An empty narrowed set answers without a probe.  Unoptimized
      automata carry no jump sets, so apart from that narrowing they
      take the seed engine's paths;
    - string-value predicates on mixed-content nodes compared in place
      as the node's texts stream past, never concatenated;
    - left-biased disjunctions, so every answer is marked exactly once
      and counters/concatenation are sound.

    Results are produced through a pluggable semantics so counting
    never materializes nodes. *)

type stats = {
  mutable visited : int;  (* nodes the run function touched (scan
                             positions, simulation steps; multi-tag
                             frontier and sibling probes count each
                             candidate position they evaluate) *)
  mutable marked : int;   (* mark operations (excluding lazy ranges) *)
  mutable jumps : int;    (* tagged jumps, frontier advances and range
                             collections *)
  mutable memo_hits : int;
}

val fresh_stats : unit -> stats

val copy_stats : stats -> stats
(** A snapshot, so a caller can diff counters across a run. *)

val stats_assoc : stats -> (string * int) list
(** Stable [(name, value)] view ([visited], [marked], [jumps],
    [memo_hits]) for traces and reports. *)

type config = {
  enable_jump : bool;   (* §5.4.1 jumping, §5.5.4 range collection and
                           the optimizer's jump-set driven scans *)
  enable_memo : bool;   (* §5.5.2 caching of the transition analysis *)
  enable_early : bool;  (* §5.5.5 early formula evaluation: skip the
                           next-sibling recursion for formulas already
                           decided by the first-child results.  Off by
                           default: it pays off on heavy filters (3x on
                           X12) but costs a pre-pass everywhere else *)
  stats : stats;
}

val default_config : unit -> config

type 'r sem = {
  empty : 'r;
  mark : int -> 'r;
  cat : 'r -> 'r -> 'r;
  range : int list -> int -> int -> 'r;   (* tags, lo, hi *)
}

val count_sem : Sxsi_tree.Tree_backend.t -> int sem
val marks_sem : Marks.t sem

type custom_impl = {
  cp_match : string -> bool;
      (** node-level test on a string-value (the fallback path) *)
  cp_texts : (unit -> int list) option;
      (** when the predicate is backed by its own index: the sorted
          identifiers of all matching texts, computed once per run
          (§6.6.2/§6.7 — word-based and PSSM indexes plug in here) *)
}

val simple_fun : (string -> bool) -> custom_impl
(** A custom predicate with no index of its own (every text is
    scanned). *)

type text_funs = string -> custom_impl option
(** Custom predicate registry: looked up as ["name:arg"], then
    ["name"]. *)

val value_matches : Sxsi_xpath.Ast.value_op -> string -> string -> bool
(** [value_matches op value literal], compared in place. *)

val text_set_of_pred :
  Sxsi_xml.Document.t -> text_funs -> Sxsi_auto.Automaton.pred_descr -> int array
(** Identifiers of the texts satisfying a predicate, sorted — one
    global index query (or one scan, for custom predicates). *)

val custom_fn : text_funs -> string -> string -> custom_impl
(** Resolve a custom predicate.
    @raise Invalid_argument when unregistered. *)

val run :
  ?budget:Sxsi_qos.Budget.t ->
  ?config:config ->
  ?funs:text_funs ->
  'r sem ->
  Sxsi_auto.Automaton.t ->
  'r
(** Run the automaton from the document root, on the calling domain;
    the result is the combined marks of the start state ([sem.empty]
    when the automaton has no accepting run).

    With a [budget], every node visit (simulation step or scan
    position) charges one step via {!Sxsi_qos.Budget.check}: the run
    either completes with its full, deterministic result or raises
    {!Sxsi_qos.Budget.Exceeded}, so no truncated result can escape.
    @raise Invalid_argument on an unregistered custom predicate. *)
