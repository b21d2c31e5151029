(** The protocol over a pair of channels: one blocking session, as
    [sxsi repl] runs it over stdin/stdout.  The TCP front end is
    {!Ev_server}. *)

val default_max_line : int
(** Default bound on a request line, in bytes (64 KiB). *)

val chomp_cr : string -> string
(** Drop one trailing ['\r'], so CRLF clients frame like LF ones. *)

val session : in_channel -> out_channel -> Service.t -> unit
(** Read one request per line from the input channel and write each
    rendered response to the output channel, until [QUIT] or EOF.

    Reads at most {!default_max_line} bytes per request line,
    answering [ERR TOOLONG] for longer ones; the line is
    drained and the session goes on.  Tracks the session's [DEADLINE]
    override and passes it to {!Service.handle_line}. *)
