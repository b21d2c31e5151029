(** The line-oriented request/response protocol spoken by [sxsi serve]
    and [sxsi repl].  Pure parser and printer, unit-testable without
    sockets.

    Request grammar (one request per line):
    {v
    LOAD <name> <path>          register the document in <path>
                                (.xml or .sxsi) under <name>
    QUERY <name> <query...>     preorder ids of the selected nodes
    COUNT <name> <query...>     number of selected nodes
    MATERIALIZE <name> <query...>  serialized XML of the selected nodes
    STATS                       service counters as key=value lines
    METRICS                     Prometheus text exposition of the
                                service metrics
    TRACE <name> <query...>     evaluate once with tracing on; one
                                JSON trace record
    DUMP                        the flight recorder's journal as one
                                JSON line (schema sxsi-journal-v1)
    EVICT <name>                drop a document (and its cached queries)
    DEADLINE <ms>               set the session's per-request deadline
                                in milliseconds (0 clears it)
    PROFILE [secs]              sample the whole process for [secs]
                                (default 1, max 60) seconds; one JSON
                                line (schema sxsi-prof-v1) followed by
                                the collapsed-stack profile lines
    QUIT                        close the session
    v}
    Verbs are case-insensitive; [<name>] and [<path>] contain no
    whitespace; [<query...>] is the rest of the line.

    Response grammar:
    {v
    OK [tok ...]                single-line success
    ERR <message>               single-line failure
    DATA                        multi-line payload: payload lines with a
    <payload lines>             leading '.' doubled (SMTP-style
    .                           dot-stuffing), terminated by "." alone
    v}

    Governance failures carry a machine-readable code as the first
    word of the [ERR] message (see {!err} and {!err_code}):
    [DEADLINE], [BUDGET], [BREAKER], [SHED], [TOOLONG], [INJECTED].
    [BREAKER] and [SHED] messages end with [retry-after-ms=<n>]
    (see {!retry_after_ms}).  Other failures — parse errors, unknown
    documents — remain code-less [ERR] messages. *)

type request =
  | Load of { name : string; path : string }
  | Query of { doc : string; query : string }
  | Count of { doc : string; query : string }
  | Materialize of { doc : string; query : string }
  | Stats
  | Metrics
  | Dump
  | Trace of { doc : string; query : string }
  | Evict of string
  | Deadline of int
  | Profile of int
  | Quit

type response =
  | Ok of string list       (* OK tok1 tok2 ... *)
  | Data of string list     (* payload lines, unstuffed, newline-free *)
  | Framed of string
      (* a DATA response already in wire form, header to terminator:
         how a MATERIALIZE reply reaches the front end without a
         second copy *)
  | Err of string

val parse_request : string -> (request, string) result
(** Parse one request line (no trailing newline). *)

val print_request : request -> string
(** Canonical one-line rendering; [parse_request (print_request r) = Ok r]
    whenever names/paths are whitespace-free and the query is non-empty
    and trimmed. *)

val err : ?retry_after_ms:int -> string -> string -> response
(** [err CODE detail] is [Err "CODE detail"], optionally suffixed with
    ["; retry-after-ms=<n>"].  [CODE] must be upper-case ASCII for
    {!err_code} to recover it. *)

val err_code : response -> string option
(** The leading upper-case error code of an [Err] response, if it has
    one ([None] for [Ok]/[Data] and for code-less errors). *)

val retry_after_ms : response -> int option
(** The [retry-after-ms=<n>] hint of an [Err] response, if present. *)

val print_response : response -> string
(** Wire rendering, dot-stuffed, every line ["\n"]-terminated.  A
    [Framed] response is its own rendering. *)

val parse_response : string list -> (response * string list, string) result
(** Consume one response from a list of received lines (no trailing
    newlines); returns the remaining lines.
    [parse_response (lines (print_response r)) = Ok (r, [])] for every
    [r] but [Framed], which parses back as the [Data] it encodes. *)

val read_response : (unit -> string option) -> (response, string) result
(** Incremental client-side reader: pull lines until one full response
    is consumed.  [None] from the reader means EOF. *)

(** {1 DATA encoder}

    One encoder writes every DATA block.  [print_response (Data lines)]
    is [encode_data lines]. *)

val encode_data : string list -> string
(** A whole DATA block over the parts: each part is split at ["\n"],
    each line dot-stuffed (a leading ['.'] doubled) and
    ["\n"]-terminated, so [encode_data parts = print_response (Data
    (List.concat_map (String.split_on_char '\n') parts))]. *)

val add_data_header : Buffer.t -> unit
(** Append ["DATA\n"], for a payload written in place (a
    [MATERIALIZE] reply, framed as it is serialized). *)

val add_data_trailer : Buffer.t -> unit
(** Append the terminator [".\n"]. *)
