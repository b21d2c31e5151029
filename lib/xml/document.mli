(** The SXSI document: the XML data modelled as in §2 of the paper and
    represented by the succinct tree + tag index + text collection.

    Model: an extra root labeled ["&"] sits above the document element;
    every non-empty character-data run becomes a leaf labeled ["#"]
    whose string is stored in the text collection; a node with
    attributes gets a first child labeled ["@"], below which each
    attribute [@a=v] contributes a node labeled [a] (registered in the
    tag table as ["@a"], so element and attribute tests never collide)
    with a ["%"]-labeled leaf holding [v].

    A [node] is the position of its opening parenthesis in the
    balanced-parentheses sequence; [nil] (= -1) means "no node". *)

type t

type node = int

val nil : node

type backend = [ `Bp | `Grammar ]
(** The physical tree representation: balanced parentheses + tag index
    (the default) or the grammar-compressed SLP
    ({!Sxsi_tree.Tree_backend}).  Query results are byte-identical
    either way. *)

exception Unknown_backend of string
(** Raised by {!load} when a container's header names a backend this
    build does not know. *)

(** {1 Construction} *)

val of_xml : ?pool:Sxsi_par.Pool.t -> ?backend:backend ->
  ?keep_whitespace:bool -> ?sample_rate:int -> ?store_plain:bool ->
  string -> t
(** Parse and index an XML document.  [keep_whitespace] (default
    [true]) controls whether whitespace-only texts become text nodes.
    [backend] picks the tree representation; it defaults to the
    [SXSI_BACKEND] environment variable (["bp"] or ["grammar"]), or
    [`Bp].  With a [pool] of size [> 1], the tree structures and the
    text collection are built concurrently (and each chunks its own
    work across the pool); the resulting document is identical to a
    sequential build.
    @raise Xml_parser.Parse_error on malformed input. *)

val build : ?pool:Sxsi_par.Pool.t -> ?backend:backend ->
  ?keep_whitespace:bool -> ?sample_rate:int -> ?store_plain:bool ->
  string -> t
(** Alias of {!of_xml} under the name the parallel-build entry point is
    documented by. *)

val save : t -> string -> unit
(** Write the whole self-index to a file (versioned container around
    the runtime representation: magic, backend tag, payload length, MD5
    digest, payload), so later sessions pay the §6.2 "loading time"
    instead of reconstruction. *)

val load : string -> t
(** Read an index written by {!save}.
    @raise Unknown_backend when the header carries a backend tag this
    build does not implement.
    @raise Failure on a bad magic number, version mismatch, truncated
    file, or checksum failure — never crashes on corrupt input. *)

val of_texts_override : t -> Sxsi_text.Text_collection.t -> t
(** Replace the text collection (the modularity hook of §6.6-6.7: plug
    a word-based or run-length index built over [texts t]). *)

(** {1 Components} *)

val tree : t -> Sxsi_tree.Tree_backend.t
(** The tree backend every navigation below goes through. *)

val backend : t -> backend
val backend_name : t -> string
(** ["bp"] or ["grammar"]. *)

val bp : t -> Sxsi_tree.Bp.t
(** The balanced-parentheses structure.
    @raise Invalid_argument on a non-[`Bp] document. *)

val tag_index : t -> Sxsi_tree.Tag_index.t
(** The tag index.
    @raise Invalid_argument on a non-[`Bp] document. *)

val text : t -> Sxsi_text.Text_collection.t
val rel : t -> Sxsi_tree.Tag_rel.t

(** {1 Reserved tags} *)

val root_tag : int
(** Tag of the extra root node ["&"]. *)

val text_tag : int
(** Tag of text leaves ["#"]. *)

val attlist_tag : int
(** Tag of the attribute-list node ["@"]. *)

val attval_tag : int
(** Tag of attribute-value leaves ["%"]. *)

(** {1 Tags} *)

val tag_count : t -> int
val tag_name : t -> int -> string
val tag_id : t -> string -> int option
(** Element-name lookup; attribute names are registered as ["@name"]. *)

val attribute_tag_id : t -> string -> int option

(** {1 Nodes} *)

val root : t -> node
val node_count : t -> int
val tag_of : t -> node -> int
val preorder : t -> node -> int
(** Global identifier (0-based preorder, §4.2.3). *)

val is_element : t -> node -> bool
(** True for named element nodes (not [&], [#], [@], [%], and not
    attribute-name nodes). *)

val is_text_leaf : t -> node -> bool
(** True for [#] and [%] leaves. *)

val is_element_tag : t -> int -> bool
(** Whether a tag identifier denotes a named element. *)

val is_attribute_tag : t -> int -> bool
(** Whether a tag identifier denotes an attribute name. *)

val tag_is_pcdata : t -> int -> bool
(** Whether every node carrying this tag satisfies {!pcdata_only} —
    the "content known to be PCDATA" information of §6.6, kept in the
    index so the engine can prove a text predicate applies to a single
    text. *)

(** {1 Texts} *)

val text_count : t -> int
val texts : t -> string array
(** The texts in document order (id order). *)

val text_id_of_leaf : t -> node -> int
val leaf_of_text : t -> int -> node
val text_range : t -> node -> int * int
(** Half-open range of text identifiers inside the subtree
    ([TextIds]). *)

val get_text : t -> int -> string
val string_value : t -> node -> string
(** XPath string-value: concatenation of all texts in the subtree. *)

val iter_string_value : t -> node -> (string -> unit) -> unit
(** [iter_string_value t x f] calls [f] on each text of [string_value t x],
    in document order, without concatenating them.  [f] may raise to
    stop early. *)

val pcdata_only : t -> node -> bool
(** True when the subtree contains at most one text and no element
    children other than the texts — i.e. a text predicate on this node
    can be answered by the text index on a single text (§6.6 step 2). *)

(** {1 Serialization (§4.3)} *)

val serialize : t -> node -> string
(** Recreate the XML serialization of the subtree ([GetSubtree]). *)

val space_bits : t -> int
val tree_space_bits : t -> int
val text_space_bits : t -> int
