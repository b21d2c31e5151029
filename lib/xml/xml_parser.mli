(** Event-based (SAX-style) XML parser.

    Supports the subset of XML the paper's documents need: elements,
    attributes, character data, CDATA sections, comments, processing
    instructions, a DOCTYPE declaration, and the predefined and numeric
    character references.  Namespaces are not interpreted (prefixed
    names are plain names). *)

exception Parse_error of int * string
(** Byte position and message. *)

val parse :
  on_open:(string -> (string * string) list -> unit) ->
  on_close:(string -> unit) ->
  on_text:(string -> unit) ->
  string ->
  unit
(** Parse a complete document.  [on_text] receives maximal runs of
    character data with entities decoded (never empty, possibly
    whitespace-only); attribute values are entity-decoded too.
    @raise Parse_error on malformed input. *)

val add_escaped : stuff:bool -> quote:bool -> Buffer.t -> string -> int
(** [add_escaped ~stuff ~quote buf s] appends [s] to [buf] with ["&<>"]
    escaped, and ['"'] too when [quote] is set (a double-quoted attribute
    value).  With [stuff] the bytes are also dot-stuffed as
    protocol DATA lines: a ['.'] that starts a line of [buf] (after a
    ["\n"] of [s], or at the start of [s] when [buf] is empty or ends
    with ["\n"]) is written twice.  Returns the number of stuffing
    bytes added, so that callers can count the unstuffed length. *)

val escape_text : string -> string
(** Escape ["&<>"] for serialization as character data. *)

val escape_attr : string -> string
(** Escape ["&<>\""] for serialization inside a double-quoted
    attribute value. *)
