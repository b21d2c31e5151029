(** Linear-time suffix-array construction (the SA-IS algorithm of Nong,
    Zhang and Chan), used to build the Burrows-Wheeler transform of the
    text collection.

    Input and output are {e packed arrays}: 32-bit signed entries in a
    [Bytes.t], 4 bytes each in native byte order.  A text of [n] symbols
    costs [4n] bytes, its suffix array another [4n], and the
    construction about [n/4] bytes of type bits and one bucket array on
    top of those. *)

val max_length : int
(** [2{^31} - 1], the longest input {!suffix_array} accepts. *)

val check_length : int -> unit
(** [check_length n] accepts an input of [n] entries.
    @raise Invalid_argument if [n > max_length]. *)

val suffix_array : Bytes.t -> int -> Bytes.t
(** [suffix_array s sigma] is the packed suffix array of the packed
    string [s], whose symbols must lie in [\[0, sigma)] and whose last
    symbol must be [0], occurring there and nowhere else (the
    sentinel).
    @raise Invalid_argument if the sentinel condition is violated or
    [s] is longer than {!max_length}. *)

(** {2 Packed arrays} *)

val create : int -> Bytes.t
(** [create n]: [n] entries, all [0]. *)

val length : Bytes.t -> int
val get : Bytes.t -> int -> int

val unsafe_get : Bytes.t -> int -> int
(** No bounds check: for the build loops that index within [length]. *)

val unsafe_set : Bytes.t -> int -> int -> unit
