(** Tag structure of the tree (§4.1.2): a packed array giving the tag
    of every parenthesis position, plus one sparse-bitmap row per tag
    over the opening positions (the paper's sarray matrix R), supporting
    the jump operations of §4.2.2.

    Tags are small integer identifiers; the name table lives with the
    document.  Node arguments are opening-parenthesis positions of the
    accompanying {!Bp.t}. *)

type t

val build : ?pool:Sxsi_par.Pool.t -> Bp.t -> tag_count:int -> tags:int array -> t
(** [build bp ~tag_count ~tags] takes the tag identifier of every
    parenthesis position ([tags.(i)] for both the opening and closing
    parenthesis of a node).  With a [pool] of size [> 1], the bucket
    scan and the per-tag sparse rows are built across the pool's
    domains, producing an identical structure.
    @raise Invalid_argument on length mismatch or out-of-range tag. *)

val tag_count : t -> int

val tag : t -> int -> int
(** Tag of the node at position [i] ([Tag(x)]). *)

val tags_into : t -> int -> int array -> int -> unit
(** [tags_into t i dst n] writes the tags of positions [i .. i+n-1] to
    [dst.(0 .. n-1)] in one sequential decode (a bulk read for
    serialization; it does not feed the [tag_reads] probe). *)

val count : t -> int -> int
(** Total number of nodes carrying a tag. *)

val subtree_tags : t -> int -> int -> int
(** [subtree_tags t x tag]: number of [tag]-labeled nodes in the
    subtree rooted at [x], including [x] itself ([SubtreeTags]). *)

val tagged_desc : t -> int -> int -> int
(** [tagged_desc t x tag]: first node in preorder labeled [tag]
    strictly inside the subtree of [x]; [-1] if none ([TaggedDesc]). *)

val tagged_foll : t -> int -> int -> int
(** [tagged_foll t x tag]: first node labeled [tag] after the subtree
    of [x] in preorder; [-1] if none ([TaggedFoll]). *)

val tagged_prec : t -> int -> int -> int
(** [tagged_prec t x tag]: last node labeled [tag] before [x] in
    preorder that is not an ancestor of [x]; [-1] if none
    ([TaggedPrec]). *)

val tagged_next : t -> int -> int -> int
(** First node labeled [tag] at a position [>= i] (whole-document jump,
    used to iterate all nodes with a tag); [-1] if none. *)

val rank_tag : t -> int -> int -> int
(** Number of [tag]-labeled nodes at opening positions [< i]. *)

val select_tag : t -> int -> int -> int
(** Position of the [j]-th [tag]-labeled node (0-based). *)

val space_bits : t -> int

(** {1 Profiling probe}

    Process-global counters fed by the jump operations and [tag] when
    installed; same cost discipline and approximate concurrent
    attribution as the FM-index probe. *)

type probe = {
  jump_calls : Sxsi_obs.Counter.t;
  (** [tagged_desc]/[tagged_foll]/[tagged_next]/[tagged_prec] calls *)
  tag_reads : Sxsi_obs.Counter.t;  (** [tag] lookups *)
}

val create_probe : unit -> probe
(** A probe with both counters at zero. *)

val set_probe : probe option -> unit
(** Install (or with [None] remove) the process-global probe. *)

val current_probe : unit -> probe option
(** The probe currently installed, if any. *)

val probe_jump : unit -> unit
(** Count one jump call on the installed probe (no-op without one).
    Exposed so alternative tree backends report into the same
    counters. *)

val probe_tag_read : unit -> unit
(** Count one [tag] lookup on the installed probe (no-op without
    one). *)
