(** Grammar-compressed tree structure: a straight-line program (SLP)
    over the parenthesis/tag sequence, built by TreeRePair-style digram
    replacement, supporting the same navigation and tag-jump operations
    as the balanced-parentheses representation.

    The input is the document's parenthesis sequence with one symbol
    per parenthesis: position [i] carries terminal [2*tag(i)] if it is
    an opening parenthesis and [2*tag(i) + 1] if it is a closing one.
    Repeated digrams become nonterminals (one per qualifying digram
    type per round), so a highly repetitive tree collapses to a small
    rule set plus a short start sequence.

    Every nonterminal stores summaries of its expansion — length, net
    excess, min/max prefix excess, opening-parenthesis count, and a
    sparse per-tag table of opening counts — so a navigation hop
    descends the grammar instead of expanding it: each operation costs
    O(log #slots + grammar depth).

    Node identifiers, [excess], [close], [enclose] and the jump
    operations mirror {!Sxsi_tree.Bp} and {!Sxsi_tree.Tag_index}
    exactly: a node is the position of its opening parenthesis, [-1]
    means "no node", [bwd]-style searches treat position [-1] as having
    excess 0. *)

type t

val build :
  ?min_freq:int -> tag_count:int -> leaf_tags:int list -> int array -> t
(** [build ~tag_count ~leaf_tags syms] compresses the terminal sequence
    [syms] ([syms.(i) = 2*tag + 0] for "(", [+ 1] for ")").
    [min_freq] (default 4) is the digram-replacement threshold;
    [leaf_tags] are the tags whose opening parentheses {!leaf_rank} and
    {!leaf_select} enumerate (the text/attribute-value leaves).
    @raise Invalid_argument on an unbalanced sequence or an
    out-of-range symbol. *)

(** {1 Size} *)

val length : t -> int
(** Number of parentheses ([2 n] for [n] nodes). *)

val node_count : t -> int
val tag_count : t -> int
val rule_count : t -> int
(** Number of nonterminals in the grammar. *)

val slot_count : t -> int
(** Length of the start sequence after compression. *)

val depth_bound : t -> int
(** Height of the derivation forest: the maximum number of rule
    expansions a descent can traverse. *)

val space_bits : t -> int

(** {1 Sequence access} *)

val is_open : t -> int -> bool
val tag : t -> int -> int
val excess : t -> int -> int
(** Excess after position [i] (depth of the node opened at [i]). *)

val iter_range : t -> int -> int -> (int -> unit) -> unit
(** [iter_range t lo hi f] calls [f] on the terminal ([2*tag] for "(",
    [2*tag + 1] for ")") of every position in [\[lo, hi)], in order.
    One descent finds [lo]; after it each rule on the way is expanded
    once, so a range costs O(grammar depth + its length). *)

(** {1 Navigation (Bp-equivalent)} *)

val close : t -> int -> int
val open_ : t -> int -> int
val enclose : t -> int -> int
(** Opening parenthesis of the parent; [-1] for the root. *)

val root : t -> int
val preorder : t -> int -> int
val node_of_preorder : t -> int -> int
val subtree_size : t -> int -> int
val is_ancestor : t -> int -> int -> bool
val is_leaf : t -> int -> bool
val first_child : t -> int -> int
val next_sibling : t -> int -> int
val parent : t -> int -> int
val depth : t -> int -> int

(** {1 Tag operations (Tag_index-equivalent)} *)

val count_tag : t -> int -> int
(** Total number of nodes carrying a tag. *)

val rank_tag : t -> int -> int -> int
(** [rank_tag t tag i]: number of [tag]-labeled nodes at opening
    positions [< i]. *)

val select_tag : t -> int -> int -> int
(** Position of the [j]-th [tag]-labeled node (0-based).
    @raise Invalid_argument when [j] is out of range. *)

val next_tag : t -> int -> int -> int
(** Smallest [tag]-opening position [>= i]; [-1] if none. *)

val prev_tag : t -> int -> int -> int
(** Largest [tag]-opening position [< i]; [-1] if none. *)

val subtree_tags : t -> int -> int -> int
val tagged_desc : t -> int -> int -> int
val tagged_foll : t -> int -> int -> int
val tagged_prec : t -> int -> int -> int
val tagged_next : t -> int -> int -> int

(** {1 Leaf enumeration}

    Rank/select over the opening positions of the [leaf_tags] given at
    build time (document order), replacing the Bp backend's explicit
    leaf bitvector. *)

val leaf_count : t -> int
(** Total number of leaf openings. *)

val leaf_rank : t -> int -> int
(** Number of leaf openings at positions [< i]. *)

val leaf_select : t -> int -> int
(** Position of the [d]-th leaf opening (0-based).
    @raise Invalid_argument when [d] is out of range. *)
