(** The text collection of an XML document: the set of [d] texts (one
    per [#]/[%]-labeled tree leaf), indexed by an FM-index and
    optionally mirrored in plain form for fast extraction and for
    high-occurrence [contains] queries (§3.2-3.4 of the paper).

    Every operator takes a pattern and answers over text identifiers
    [0 .. d-1].  Reporting operators return identifiers sorted
    increasingly and duplicate-free. *)

type t

type store =
  | Plain_store   (** verbatim copy: fastest extraction (§3.4's choice) *)
  | Lz78_store    (** LZ78-compressed copy: compressed space, linear
                      extraction (§3.4's alternative) *)
  | No_store      (** extraction through the FM-index only *)

val build : ?pool:Sxsi_par.Pool.t -> ?sample_rate:int -> ?store_plain:bool ->
  ?store:store -> string array -> t
(** [build texts] indexes the collection.  The secondary text store
    (§3.4) defaults to [Plain_store]; [store_plain:false] is a shorthand
    for [No_store], and an explicit [store] wins over it.  [pool]
    parallelizes the underlying {!Sxsi_fm.Fm_index.build} without
    changing its result. *)

val doc_count : t -> int
val total_length : t -> int
val has_plain : t -> bool
(** Whether a secondary store (plain or LZ78) is present. *)

val store_space_bits : t -> int
(** Size of the secondary text store, 0 when absent. *)

val get_text : t -> int -> string
(** Content of a text (plain copy when present, FM extraction
    otherwise). *)

val global_count : t -> string -> int
(** Number of occurrences of the pattern across all texts
    ([GlobalCount] in Table II), in [O(|p| log sigma)]. *)

(** {1 XPath predicates} *)

val contains : t -> string -> int list
(** Texts containing the pattern, found by locating its occurrences or
    by scanning the stored copy, per {!contains_strategy}. *)

val contains_count : t -> string -> int
val contains_exists : t -> string -> bool

val straddle_tails : t -> string -> int list
(** Texts that start with a proper non-empty suffix of the pattern: the
    last text of any occurrence that runs across several texts.  Read off
    end-marker rows, with no locate. *)

val straddle_tails_count : t -> string -> int
(** Sum over the proper suffixes of the texts each starts: an upper
    bound on [List.length (straddle_tails t p)], in [O(|p| log sigma)]. *)

val equals : t -> string -> int list
val equals_count : t -> string -> int

val starts_with : t -> string -> int list
val starts_with_count : t -> string -> int

val ends_with : t -> string -> int list
val ends_with_count : t -> string -> int

(** {1 Range-restricted predicates}

    The general form of the §3.2 operators, restricted to text
    identifiers in [\[lo, hi)] — the §7 hook for confining a search to
    one subtree's texts.  (The paper's prototype only implements the
    full range; this implementation answers the full-range query on the
    index and filters, which is correct but not sublinear in the number
    of matches outside the range.) *)

val contains_in : t -> string -> lo:int -> hi:int -> int list
val equals_in : t -> string -> lo:int -> hi:int -> int list
val starts_with_in : t -> string -> lo:int -> hi:int -> int list
val ends_with_in : t -> string -> lo:int -> hi:int -> int list

(** {1 Lexicographic operators} *)

(** Each reads the texts off one contiguous range of end-marker rows,
    in [O(|p| log sigma)] plus [O(log sigma)] per reported text. *)

val less_than : t -> string -> int list
(** Texts strictly smaller than the pattern. *)

val less_equal : t -> string -> int list
val greater_than : t -> string -> int list
val greater_equal : t -> string -> int list
val less_than_count : t -> string -> int
val less_equal_count : t -> string -> int

(** {1 Strategy introspection (for the benchmark harness)} *)

type contains_strategy = Fm_locate | Plain_scan

val contains_strategy : t -> string -> contains_strategy
(** The strategy [contains] picks for this pattern: [Plain_scan] when a
    store exists and locating every occurrence ({!global_count} times
    about half the index's sample rate in LF steps) would cost more than
    scanning {!total_length} bytes at the pattern's Horspool skip. *)

val contains_via : t -> contains_strategy -> string -> int list
(** Force a strategy (used by the Table II/III crossover experiment). *)

val space_bits : t -> int
val fm_space_bits : t -> int
