(** Bottom-up evaluation (§5.4.2): for queries of the shape
    [/axis::t1/.../axis::tk\[text-predicate\]], ask the text index for
    the matching texts first, then verify each candidate's upward path
    to the root — a huge win when the predicate is selective.

    Shared ancestors are verified once through a (step, node) memo
    table, which plays the role of the shift-reduce bookkeeping of the
    paper's Figure 6.  Steps between the answer step and the last step
    are resolved by walking each level's nodes upward once. *)

type plan

val plan : Sxsi_xml.Document.t -> Sxsi_xpath.Ast.path -> plan option
(** [Some] when the query has the bottom-up-compatible shape: child or
    descendant steps, no intermediate filters, and a single text
    predicate on the last step applied to the node's own value — where
    the last step selects text nodes, attributes, or elements whose tag
    the index knows to be PCDATA-only (so "one matching text = one
    matching node" holds, §6.6), or where the predicate is
    [contains(., P)] with a non-empty literal [P] on any element or
    [node()] step.  In that last case the string-value may span many
    texts: every ancestor of a text containing [P] matches, and a match
    that straddles texts is found from the texts that start with a
    proper suffix of [P] ({!Sxsi_text.Text_collection.straddle_tails}),
    each checked on a window of its neighbours. *)

val pred_of : plan -> Sxsi_auto.Automaton.pred_descr

val reads_string_value : plan -> bool
(** Whether the plan answers [contains] over string-values (the last
    case of {!plan}): its candidates are the hit texts' ancestors plus
    the straddle tails. *)

val matches_empty_value : ?funs:Run.text_funs -> plan -> bool
(** Whether the predicate accepts the empty string — if so, nodes
    without texts qualify and the bottom-up strategy is unsound. *)

val run :
  ?budget:Sxsi_qos.Budget.t -> ?funs:Run.text_funs ->
  Sxsi_xml.Document.t -> plan -> int list
(** Selected node positions, sorted (document order).  With a
    [budget], each candidate text, straddle tail and node walked up the
    chain charges one {!Sxsi_qos.Budget.check} step: the run completes
    in full or raises
    {!Sxsi_qos.Budget.Exceeded}. *)

val run_with_text_time :
  ?budget:Sxsi_qos.Budget.t -> ?funs:Run.text_funs ->
  Sxsi_xml.Document.t -> plan -> float * int list
(** Like {!run}, also reporting the seconds spent in the text-index
    phase (for the Figure 15 time split). *)
