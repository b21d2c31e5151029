(** Packed arrays of fixed-width non-negative integers. *)

type t

val make : int -> int -> t
(** [make n width] is an array of [n] zero-initialised integers of
    [width] bits each, [0 < width <= 62]. *)

val of_array : ?width:int -> int array -> t
(** Pack an existing array; [width] defaults to the minimum width able
    to hold the maximum element. *)

val length : t -> int
val width : t -> int
val get : t -> int -> int
val blit_to : t -> int -> int array -> int -> unit
(** [blit_to t i dst n] writes elements [i .. i+n-1] to [dst.(0 .. n-1)],
    decoding them in one sequential pass. *)

val set : t -> int -> int -> unit
val space_bits : t -> int
