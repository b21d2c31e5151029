(** FM-index over a collection of texts (§3 of the paper).

    The collection is conceptually the concatenation
    [T = t_0 $_0 t_1 $_1 ... t_{d-1} $_{d-1}] where each end-marker
    sorts below every content byte and [$_i < $_j] for [i < j], so that
    BWT row [i] is the rotation starting with the terminator of text
    [i-1]'s successor — equivalently, the first [d] rows of the
    conceptual matrix put the terminator of text [z] in column [F] at
    row [z], the ordering §3.2 relies on.

    Content bytes must be in [\[1, 255]]; byte 0 is reserved for the
    end-markers.  Rows and text identifiers are 0-based; row ranges are
    half-open [\[sp, ep)]. *)

type t

val build : ?pool:Sxsi_par.Pool.t -> ?sample_rate:int -> string array -> t
(** [build texts] indexes the collection.  [sample_rate] (default 64)
    is the text-position sampling step [l] governing the
    locate-time/space trade-off.  With a [pool] of size [> 1], the
    wavelet-tree build runs chunked across the pool's domains; the
    resulting index is identical to the sequential build.  The build
    holds the packed text and its suffix array (4 bytes per text byte
    each) until the BWT is written, and drops both before the wavelet
    tree is built.
    @raise Invalid_argument if a text contains byte 0, or if the
    collection has [2{^31} - 1] or more bytes with terminators. *)

val bwt_of_texts : string array -> string
(** The BWT of the collection (the index's row order, ['\000'] for
    end-markers) with nothing else built: the input of run-length
    indexes.
    @raise Invalid_argument as {!build}. *)

val length : t -> int
(** Total length of [T], terminators included. *)

val doc_count : t -> int
val sample_rate : t -> int

(** {1 Backward search} *)

val search : t -> string -> int * int
(** [search t p] is the half-open row range of rows prefixed by [p].
    Empty pattern gives [(0, length t)]. *)

val search_within : t -> string -> int -> int -> int * int
(** [search_within t p sp ep] runs the backward search starting from
    row range [\[sp, ep)] instead of the full range (used by
    [ends-with], §3.2). *)

val search_suffixes : t -> string -> (int -> int -> int -> unit) -> unit
(** [search_suffixes t p f] runs one backward search over [p] and calls
    [f i sp ep] with the non-empty row range of each suffix [p.[i..]],
    for [i] from [|p| - 1] down, stopping at the first suffix that does
    not occur. *)

val count : t -> string -> int
(** Number of occurrences of [p] in the whole collection. *)

val bounds : t -> string -> int * int
(** Like [search], but when the pattern does not occur the returned
    empty range [(sp, sp)] still marks the insertion point: [sp] is the
    number of rows whose rotation is lexicographically smaller than any
    rotation starting with [p] (used by the lexicographic-order
    operators of §3.2). *)

val count_approx : t -> string -> k:int -> int
(** Occurrences of the pattern with up to [k] mismatching positions
    (Hamming distance), via the backtracking extension of the backward
    search sketched in §3.2 (after Lam et al. [41]).  Exponential in
    [k] in the worst case. *)

val search_approx : t -> string -> k:int -> (int * int) list
(** The (disjoint) row ranges of all approximate occurrences. *)

(** {1 Row inspection} *)

val bwt_byte : t -> int -> char
(** BWT symbol of a row; ['\000'] stands for any end-marker. *)

val lf : t -> int -> int
(** Last-to-first mapping.  Must not be applied to an end-marker row
    (raises [Invalid_argument]). *)

val occ : t -> char -> int -> int
(** [occ t c i] is the number of occurrences of [c] in the BWT prefix
    [\[0, i)]. *)

val c_before : t -> char -> int
(** [c_before t c] is the number of symbols of [T] smaller than [c]
    (end-markers count as smaller than every content byte). *)

val dollar_doc : t -> int -> int
(** For a row whose BWT symbol is an end-marker: the identifier of the
    text whose first character that row's suffix starts at. *)

val dollar_count_in : t -> int -> int -> int
(** Number of end-marker rows in a row range. *)

val dollar_index_range : t -> int -> int -> int * int
(** Map a row range to the half-open range of end-marker indexes it
    spans (indexes into the Doc sequence, §3.2). *)

val dollar_doc_at : t -> int -> int
(** The text started at the [j]-th end-marker row (Doc sequence
    access). *)

val iter_dollar_docs : t -> int -> int -> (int -> unit) -> unit
(** Apply a function to the text id of every end-marker row in a row
    range, in row order. *)

(** {1 Locating and extraction} *)

val locate : t -> int -> int
(** Global position in [T] of the suffix at a row (walks backwards to a
    sampled position, [O(l)] steps). *)

val pos_to_text : t -> int -> int * int
(** Map a global position of [T] to [(text id, offset within text)]. *)

val text_start : t -> int -> int
val text_length : t -> int -> int
(** Content length of a text, excluding its terminator. *)

val extract : t -> int -> string
(** Recover the content of a text from the index alone. *)

val space_bits : t -> int

(** {1 Profiling probe}

    A process-global set of counters fed by the hot operations when
    installed.  The disabled path costs one atomic load and branch per
    public call (never per search or locate step), so production
    queries pay a few nanoseconds at most.  Counts are attributed to
    whichever probe is installed when a call finishes, so concurrent
    evaluations sharing the global slot see approximate per-query
    attribution. *)

type probe = {
  search_calls : Sxsi_obs.Counter.t;  (** backward-search invocations *)
  search_steps : Sxsi_obs.Counter.t;  (** pattern characters consumed *)
  locate_calls : Sxsi_obs.Counter.t;  (** [locate] invocations *)
  locate_steps : Sxsi_obs.Counter.t;  (** LF steps walked to a sample *)
  locate_ns : Sxsi_obs.Counter.t;     (** wall time inside [locate] *)
  extract_calls : Sxsi_obs.Counter.t; (** [extract] invocations *)
  extract_ns : Sxsi_obs.Counter.t;    (** wall time inside [extract] *)
}

val create_probe : unit -> probe
(** A probe with all counters at zero. *)

val set_probe : probe option -> unit
(** Install (or with [None] remove) the process-global probe. *)

val current_probe : unit -> probe option
(** The probe currently installed, if any. *)
