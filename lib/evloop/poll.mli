(** Readiness polling for the event loop: a poll(2) binding.

    The loop registers interest per file descriptor and asks which are
    ready, as three readiness bits.  Unlike [Unix.select], poll(2) has
    no [FD_SETSIZE] ceiling. *)

val ev_read : int
(** Interest/readiness bit 1: readable (or peer hung up). *)

val ev_write : int
(** Interest/readiness bit 2: writable. *)

val ev_error : int
(** Readiness-only bit 4: error, hangup or invalid fd. *)

type t
(** A reusable registration table: fds with interest masks.  Not
    thread-safe; owned by the loop. *)

val create : unit -> t

val set : t -> Unix.file_descr -> int -> unit
(** [set t fd interest] registers [fd] with the given interest mask
    (combination of {!ev_read}/{!ev_write}), replacing any previous
    registration.  An interest of [0] keeps the fd registered but
    dormant. *)

val remove : t -> Unix.file_descr -> unit

val cardinal : t -> int

val wait : t -> timeout_ms:int -> (Unix.file_descr -> int -> unit) -> int
(** Wait until some registered fd is ready or the timeout (in
    milliseconds; [-1] = infinite, [0] = non-blocking) elapses, then
    call the callback once per ready fd with its readiness mask.
    Returns the number of ready fds ([0] on timeout or [EINTR]).  The
    callback must not call {!set}/{!remove} for fds other than the one
    it was invoked for. *)
