(** The tree backend: the navigation and tag-jump operations the query
    engine actually uses, abstracted over the physical representation.

    Two implementations exist.  [`Bp] is the paper's balanced
    parentheses + tag index + leaf bitvector (the default).  [`Grammar]
    is a grammar-compressed SLP over the parenthesis/tag sequence
    ({!Sxsi_grammar.Slp}), trading O(log) hops for O(grammar depth)
    hops and collapsing repetitive tree structure by 10-100x.

    Node identifiers are opening-parenthesis positions in both
    backends, so query results, preorders and serializations are
    byte-identical whichever backend a document was built with.

    The type is a plain variant (not a record of closures) so a
    document marshals with its backend inside the save container.

    The tag-jump operations report into the {!Tag_index} profiling
    probe for both backends. *)

type kind = [ `Bp | `Grammar ]

type t

(** {1 Construction} *)

val of_bp : bp:Bp.t -> tags:Tag_index.t -> leaves:Sxsi_bits.Bitvec.t -> t
(** The balanced-parentheses backend.  [leaves] marks the opening
    positions of text/attribute-value leaves (for {!leaf_rank} /
    {!leaf_select}). *)

val of_slp : Sxsi_grammar.Slp.t -> t
(** The grammar-compressed backend; leaf enumeration comes from the
    [leaf_tags] the SLP was built with. *)

val kind : t -> kind

val kind_name : t -> string
(** ["bp"] or ["grammar"] — the tag stored in the save container and
    shown in service STATS. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] for an unknown name. *)

(** {1 Representation escape hatches}

    For call sites that measure or exercise the physical structures
    directly (benchmarks, representation tests).
    @raise Invalid_argument on a non-[`Bp] backend. *)

val bp_exn : t -> Bp.t
val tag_index_exn : t -> Tag_index.t
val slp_exn : t -> Sxsi_grammar.Slp.t
(** @raise Invalid_argument on a non-[`Grammar] backend. *)

(** {1 Sequence} *)

val length : t -> int
(** Number of parentheses ([2 n] for [n] nodes). *)

val node_count : t -> int
val is_open : t -> int -> bool

val excess : t -> int -> int
(** Excess after position [i] (depth of the node opened at [i]). *)

(** {1 Navigation (cf. {!Bp})} *)

val close : t -> int -> int
val open_ : t -> int -> int
val enclose : t -> int -> int
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

(** {1 Tags (cf. {!Tag_index})} *)

val tag_count : t -> int

val tag : t -> int -> int
(** Tag of the node at position [i]. *)

val parens_into : t -> int -> int array -> int -> unit
(** [parens_into t i dst n] writes positions [i .. i+n-1] to
    [dst.(0 .. n-1)] in one sequential pass: [2 * tag t p] for an
    opening parenthesis, [2 * tag t p + 1] for a closing one.  Tags are
    stored at both parentheses, so a left-to-right scan knows which
    node every position opens or closes without a stack. *)

val count : t -> int -> int
val subtree_tags : t -> int -> int -> int
val tagged_desc : t -> int -> int -> int
val tagged_foll : t -> int -> int -> int
val tagged_prec : t -> int -> int -> int
val tagged_next : t -> int -> int -> int
val rank_tag : t -> int -> int -> int
val select_tag : t -> int -> int -> int

(** {1 Leaves}

    Rank/select over the opening positions of text/attribute-value
    leaves, in document order. *)

val leaf_count : t -> int

val leaf_rank : t -> int -> int
(** Number of leaf openings at positions [< i]. *)

val leaf_select : t -> int -> int
(** Position of the [d]-th leaf opening (0-based). *)

val space_bits : t -> int
(** Total size of the tree structure (parentheses + tags + leaf
    enumeration for [`Bp]; the whole grammar for [`Grammar]). *)
