open Sxsi_bits
open Sxsi_tree
open Sxsi_text

type node = int

let nil = -1

let root_tag = 0
let text_tag = 1
let attlist_tag = 2
let attval_tag = 3

let reserved_names = [| "&"; "#"; "@"; "%" |]

(* Spans over the document-build phases, so indexing shows up as named
   cost centers in sampled profiles (the tree/text closures may run on
   pool worker domains, nesting under their task span). *)
module J = Sxsi_obs.Journal

let n_build = J.name "doc/build"
let n_parse = J.name "doc/parse"
let n_tree = J.name "doc/tree"
let n_text = J.name "doc/text"

type backend = [ `Bp | `Grammar ]

exception Unknown_backend of string

type t = {
  tree : Tree_backend.t;
  names : string array;
  ids : (string, int) Hashtbl.t;
  elem_tag : bool array;          (* per tag: is a named element tag *)
  attr_tag : bool array;          (* per tag: is an attribute-name tag *)
  text : Text_collection.t;
  rel : Tag_rel.t;
  pcdata_tag : bool array;        (* per tag: every occurrence is PCDATA-only *)
}

(* The build-time default backend mirrors SXSI_DOMAINS: the environment
   picks the representation when the caller does not. *)
let default_backend () =
  match Sys.getenv_opt "SXSI_BACKEND" with
  | None | Some "" | Some "bp" -> `Bp
  | Some "grammar" -> `Grammar
  | Some other ->
    failwith
      (Printf.sprintf "SXSI_BACKEND=%S: unknown backend (expected bp or grammar)"
         other)

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* Minimal growable int array (OCaml 5.1 has no Dynarray). *)
module Grow = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push g v =
    if g.n = Array.length g.a then begin
      let a = Array.make (2 * g.n) 0 in
      Array.blit g.a 0 a 0 g.n;
      g.a <- a
    end;
    g.a.(g.n) <- v;
    g.n <- g.n + 1

  (* the contents, leaving [g] empty (and unusable) so that its buffer
     can be collected *)
  let take g =
    let a = Array.sub g.a 0 g.n in
    g.a <- [||];
    g.n <- 0;
    a
end

(* Growable square bit matrix over tag pairs: the set of relation pairs
   recorded so far, probed once per relation per node without
   allocating.  The side doubles when a tag outgrows it. *)
module Bitmat = struct
  type t = { mutable side : int; mutable bits : Bytes.t }

  let create () = { side = 64; bits = Bytes.make (64 * 64 / 8) '\000' }

  let grow m need =
    let side = ref m.side in
    while !side <= need do side := 2 * !side done;
    let bits = Bytes.make (!side * !side / 8) '\000' in
    (* rows are whole bytes: [side] is a multiple of 8 *)
    for a = 0 to m.side - 1 do
      Bytes.blit m.bits (a * m.side / 8) bits (a * !side / 8) (m.side / 8)
    done;
    m.side <- !side;
    m.bits <- bits

  (* set (a, b); whether it was clear before *)
  let add m a b =
    if a >= m.side || b >= m.side then grow m (max a b);
    let bit = (a * m.side) + b in
    let byte = Char.code (Bytes.unsafe_get m.bits (bit lsr 3)) in
    let mask = 1 lsl (bit land 7) in
    byte land mask = 0
    && begin
      Bytes.unsafe_set m.bits (bit lsr 3) (Char.unsafe_chr (byte lor mask));
      true
    end
end

type builder = {
  bpb : Bp.Builder.t;
  tag_seq : Grow.t;
  leaf_bits : Bitvec.Builder.t;
  mutable texts_rev : string list;
  mutable text_count : int;
  b_ids : (string, int) Hashtbl.t;
  mutable names_rev : string list;
  mutable name_count : int;
  (* pcdata tracking: per-frame child profile *)
  kids : Grow.t;                         (* per open node: 4 * non-text kids
                                            + text kids (capped at 2) *)
  pcdata_flag : (int, bool) Hashtbl.t;
  (* relation recording *)
  mutable rel_seen : Bitmat.t array;     (* per relation, by [rel_code] *)
  mutable rel_pairs : (Tag_rel.relation * int * int) list;
  mutable ancestors : int list;          (* tag stack, top = current node *)
  mutable anc_tags : int list;           (* its distinct tags, latest first seen on top *)
  mutable anc_mult : int array;          (* per tag: occurrences on the stack *)
  mutable sibling_frames : int list list;  (* distinct earlier-sibling tags *)
  closed_order : Grow.t;                 (* distinct tags in close order *)
  closed_flag : (int, unit) Hashtbl.t;
  watermark : (int, int) Hashtbl.t;
}

let new_builder () =
  let b =
    {
      bpb = Bp.Builder.create ();
      tag_seq = Grow.create ();
      leaf_bits = Bitvec.Builder.create ();
      texts_rev = [];
      text_count = 0;
      b_ids = Hashtbl.create 64;
      names_rev = [];
      name_count = 0;
      kids = Grow.create ();
      pcdata_flag = Hashtbl.create 64;
      rel_seen = Array.init 4 (fun _ -> Bitmat.create ());
      rel_pairs = [];
      ancestors = [];
      anc_tags = [];
      anc_mult = Array.make 64 0;
      sibling_frames = [];
      closed_order = Grow.create ();
      closed_flag = Hashtbl.create 64;
      watermark = Hashtbl.create 64;
    }
  in
  Array.iter
    (fun name ->
      Hashtbl.add b.b_ids name b.name_count;
      b.names_rev <- name :: b.names_rev;
      b.name_count <- b.name_count + 1)
    reserved_names;
  b

let intern b name =
  match Hashtbl.find_opt b.b_ids name with
  | Some id -> id
  | None ->
    let id = b.name_count in
    Hashtbl.add b.b_ids name id;
    b.names_rev <- name :: b.names_rev;
    b.name_count <- b.name_count + 1;
    id

let rel_code = function
  | Tag_rel.Child -> 0
  | Tag_rel.Descendant -> 1
  | Tag_rel.Following_sibling -> 2
  | Tag_rel.Following -> 3

let record_rel b rel a tg =
  if Bitmat.add b.rel_seen.(rel_code rel) a tg then
    b.rel_pairs <- (rel, a, tg) :: b.rel_pairs

let open_node b tg ~leaf =
  (* relations with the context *)
  (match b.ancestors with
  | parent :: _ -> record_rel b Tag_rel.Child parent tg
  | [] -> ());
  (* only the distinct ancestor tags: O(distinct tags) per node, not
     O(depth) *)
  List.iter (fun a -> record_rel b Tag_rel.Descendant a tg) b.anc_tags;
  (match b.sibling_frames with
  | seen :: rest ->
    List.iter (fun a -> record_rel b Tag_rel.Following_sibling a tg) seen;
    if not (List.mem tg seen) then b.sibling_frames <- (tg :: seen) :: rest
  | [] -> ());
  let wm = match Hashtbl.find_opt b.watermark tg with Some w -> w | None -> 0 in
  for i = wm to b.closed_order.Grow.n - 1 do
    record_rel b Tag_rel.Following b.closed_order.Grow.a.(i) tg
  done;
  Hashtbl.replace b.watermark tg b.closed_order.Grow.n;
  (* structure *)
  Bp.Builder.open_node b.bpb;
  Grow.push b.tag_seq tg;
  Bitvec.Builder.push b.leaf_bits leaf;
  b.ancestors <- tg :: b.ancestors;
  if tg >= Array.length b.anc_mult then begin
    let a = Array.make (2 * (tg + 1)) 0 in
    Array.blit b.anc_mult 0 a 0 (Array.length b.anc_mult);
    b.anc_mult <- a
  end;
  if b.anc_mult.(tg) = 0 then b.anc_tags <- tg :: b.anc_tags;
  b.anc_mult.(tg) <- b.anc_mult.(tg) + 1;
  b.sibling_frames <- [] :: b.sibling_frames;
  (let top = b.kids.Grow.n - 1 in
   if top >= 0 then begin
     let k = b.kids.Grow.a.(top) in
     b.kids.Grow.a.(top) <- (if tg <> text_tag then k + 4 else if k land 3 < 2 then k + 1 else k)
   end);
  Grow.push b.kids 0

let close_node b =
  match b.ancestors with
  | [] -> invalid_arg "Document: unbalanced close"
  | tg :: rest ->
    Bp.Builder.close_node b.bpb;
    Grow.push b.tag_seq tg;
    Bitvec.Builder.push b.leaf_bits false;
    b.ancestors <- rest;
    (* the last occurrence of a tag to close is its first on the
       stack, so every tag first seen above it has left [anc_tags] *)
    b.anc_mult.(tg) <- b.anc_mult.(tg) - 1;
    if b.anc_mult.(tg) = 0 then b.anc_tags <- List.tl b.anc_tags;
    b.sibling_frames <- List.tl b.sibling_frames;
    (* a node is PCDATA-only with no non-text child and at most one text *)
    let top = b.kids.Grow.n - 1 in
    let ok = b.kids.Grow.a.(top) <= 1 in
    b.kids.Grow.n <- top;
    (match Hashtbl.find_opt b.pcdata_flag tg with
    | Some prev -> Hashtbl.replace b.pcdata_flag tg (prev && ok)
    | None -> Hashtbl.replace b.pcdata_flag tg ok);
    if not (Hashtbl.mem b.closed_flag tg) then begin
      Hashtbl.add b.closed_flag tg ();
      Grow.push b.closed_order tg
    end

let add_text b s =
  b.texts_rev <- s :: b.texts_rev;
  b.text_count <- b.text_count + 1

let of_xml ?pool ?backend ?(keep_whitespace = true) ?(sample_rate = 32)
    ?(store_plain = true) src =
  J.with_span J.Engine n_build @@ fun () ->
  let b = new_builder () in
  open_node b root_tag ~leaf:false;
  let emit_text s =
    let blank = String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) s in
    if String.length s > 0 && (keep_whitespace || not blank) then begin
      open_node b text_tag ~leaf:true;
      add_text b s;
      close_node b
    end
  in
  let on_open name attrs =
    open_node b (intern b name) ~leaf:false;
    if attrs <> [] then begin
      open_node b attlist_tag ~leaf:false;
      List.iter
        (fun (aname, avalue) ->
          open_node b (intern b ("@" ^ aname)) ~leaf:false;
          if String.length avalue > 0 then begin
            open_node b attval_tag ~leaf:true;
            add_text b avalue;
            close_node b
          end;
          close_node b)
        attrs;
      close_node b
    end
  in
  let on_close _ = close_node b in
  J.with_span J.Engine n_parse (fun () ->
      Xml_parser.parse ~on_open ~on_close ~on_text:emit_text src);
  close_node b;
  let bp = Bp.Builder.finish b.bpb in
  (* the builder's inputs are released as they are consumed (the tag
     sequence by [Grow.take]), so that they can be collected before the
     FM build's big arrays exist *)
  let names = Array.of_list (List.rev b.names_rev) in
  let texts = Array.of_list (List.rev b.texts_rev) in
  b.names_rev <- [];
  b.texts_rev <- [];
  b.rel_seen <- [||];
  let backend = match backend with Some bk -> bk | None -> default_backend () in
  (* The tree structures and the text collection depend on disjoint
     builder output, so with a pool the two builds overlap (each also
     chunks internally across the same pool). *)
  let build_tree () =
    J.with_span J.Engine n_tree @@ fun () ->
    match backend with
    | `Bp ->
      let tag_index =
        Tag_index.build ?pool bp ~tag_count:(Array.length names) ~tags:(Grow.take b.tag_seq)
      in
      Tree_backend.of_bp ~bp ~tags:tag_index
        ~leaves:(Bitvec.Builder.finish b.leaf_bits)
    | `Grammar ->
      (* the parenthesis sequence with its tags, one terminal per
         position (the in-memory Bp just built supplies direction) *)
      let tags = Grow.take b.tag_seq in
      let syms =
        Array.init (Array.length tags) (fun i ->
            (2 * tags.(i)) + if Bp.is_open bp i then 0 else 1)
      in
      Tree_backend.of_slp
        (Sxsi_grammar.Slp.build ~tag_count:(Array.length names)
           ~leaf_tags:[ text_tag; attval_tag ] syms)
  in
  let build_text () =
    J.with_span J.Engine n_text (fun () ->
        Text_collection.build ?pool ~sample_rate ~store_plain texts)
  in
  let tree, text =
    match pool with
    | Some p when Sxsi_par.Pool.size p > 1 -> Sxsi_par.Pool.fork_join p build_tree build_text
    | _ ->
      let tr = build_tree () in
      (tr, build_text ())
  in
  let rel = Tag_rel.make ~tag_count:(Array.length names) in
  List.iter (fun (r, a, tg) -> Tag_rel.add rel r ~parent:a ~child:tg) b.rel_pairs;
  let elem_tag =
    Array.map (fun n -> String.length n > 0 && n.[0] <> '@' && n <> "&" && n <> "#" && n <> "%") names
  in
  elem_tag.(attlist_tag) <- false;
  let attr_tag = Array.map (fun n -> String.length n > 1 && n.[0] = '@') names in
  {
    tree;
    names;
    ids = b.b_ids;
    elem_tag;
    attr_tag;
    text;
    rel;
    pcdata_tag =
      Array.init (Array.length names) (fun tg ->
          match Hashtbl.find_opt b.pcdata_flag tg with
          | Some ok -> ok
          | None -> false);
  }

let build = of_xml

(* Container format v5: magic, one length byte + backend tag name,
   8-byte big-endian payload length, MD5 digest of the payload, payload
   (the marshalled [t]).  The length and digest let [load] reject
   truncated or corrupt files with a clean [Failure] instead of handing
   garbage to [Marshal.from_channel], which would crash the process.
   The backend tag sits in the header so a reader rejects a container
   built with a backend it does not know — a typed [Unknown_backend]
   error — without unmarshalling the payload.  v4 bumps v3 for the
   broadword [Bitvec] layout: the marshalled record shape changed
   (interleaved rank directories + select samples), so v3 payloads no
   longer unmarshal into the current types.  v5 bumps v4 because the
   text collection lost its [contains_cutoff] field. *)
let magic = "SXSI-INDEX-v5\n"
let old_magic_prefix = "SXSI-INDEX-v"

let backend_name t = Tree_backend.kind_name t.tree

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let payload = Marshal.to_string t [] in
      output_string oc magic;
      let bk = backend_name t in
      output_byte oc (String.length bk);
      output_string oc bk;
      let len = Bytes.create 8 in
      Bytes.set_int64_be len 0 (Int64.of_int (String.length payload));
      output_bytes oc len;
      output_string oc (Digest.string payload);
      output_string oc payload)

let load path =
  let ic = open_in_bin path in
  let corrupt msg = failwith ("Document.load: " ^ msg ^ ": " ^ path) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let avail = in_channel_length ic in
      if avail < String.length magic then
        corrupt "truncated header (not an SXSI index)";
      let m = really_input_string ic (String.length magic) in
      if m <> magic then
        if String.length m >= String.length old_magic_prefix
           && String.sub m 0 (String.length old_magic_prefix) = old_magic_prefix
        then corrupt "unsupported index version (re-index with this build)"
        else corrupt "bad magic (not an SXSI v5 index)";
      if avail < String.length magic + 1 then corrupt "truncated header";
      let bk_len = input_byte ic in
      if avail < String.length magic + 1 + bk_len + 8 + 16 then
        corrupt "truncated header";
      let bk = really_input_string ic bk_len in
      if Tree_backend.kind_of_name bk = None then raise (Unknown_backend bk);
      let len = Int64.to_int (Bytes.get_int64_be (Bytes.of_string (really_input_string ic 8)) 0) in
      let header_len = String.length magic + 1 + bk_len + 8 + 16 in
      if len < 0 || len > avail - header_len then corrupt "truncated payload";
      let digest = really_input_string ic 16 in
      let payload =
        match really_input_string ic len with
        | s -> s
        | exception End_of_file -> corrupt "truncated payload"
      in
      if Digest.string payload <> digest then corrupt "checksum mismatch (corrupt index)";
      match (Marshal.from_string payload 0 : t) with
      | t ->
        if backend_name t <> bk then corrupt "backend tag does not match payload";
        t
      | exception _ -> corrupt "undecodable payload")

let of_texts_override t text = { t with text }

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let tree t = t.tree
let backend t = Tree_backend.kind t.tree
let bp t = Tree_backend.bp_exn t.tree
let tag_index t = Tree_backend.tag_index_exn t.tree
let text t = t.text
let rel t = t.rel
let tag_count t = Array.length t.names
let tag_name t i = t.names.(i)
let tag_id t name = Hashtbl.find_opt t.ids name
let attribute_tag_id t name = Hashtbl.find_opt t.ids ("@" ^ name)
let root _ = 0
let node_count t = Tree_backend.node_count t.tree
let tag_of t x = Tree_backend.tag t.tree x
let preorder t x = Tree_backend.preorder t.tree x
let is_element t x = t.elem_tag.(tag_of t x)

let is_text_leaf t x =
  let tg = tag_of t x in
  tg = text_tag || tg = attval_tag

let is_element_tag t tg = t.elem_tag.(tg)
let is_attribute_tag t tg = t.attr_tag.(tg)
let tag_is_pcdata t tg = t.pcdata_tag.(tg)

(* ------------------------------------------------------------------ *)
(* Texts                                                                *)
(* ------------------------------------------------------------------ *)

let text_count t = Text_collection.doc_count t.text
let texts t = Array.init (text_count t) (fun i -> Text_collection.get_text t.text i)
let text_id_of_leaf t x = Tree_backend.leaf_rank t.tree x
let leaf_of_text t d = Tree_backend.leaf_select t.tree d

let text_range t x =
  let c = Tree_backend.close t.tree x in
  (Tree_backend.leaf_rank t.tree x, Tree_backend.leaf_rank t.tree (c + 1))

let get_text t d = Text_collection.get_text t.text d

let iter_string_value t x f =
  let lo, hi = text_range t x in
  if hi - lo = 1 && is_text_leaf t x then f (get_text t lo)
  else begin
    (* Attribute values contribute only when the context node is itself
       in the attribute encoding ([@], attribute name, or [%]). *)
    let xtag = tag_of t x in
    let in_attributes =
      t.attr_tag.(xtag) || xtag = attval_tag || xtag = attlist_tag
    in
    for d = lo to hi - 1 do
      if in_attributes || tag_of t (leaf_of_text t d) <> attval_tag then f (get_text t d)
    done
  end

let string_value t x =
  let buf = Buffer.create 32 in
  iter_string_value t x (Buffer.add_string buf);
  Buffer.contents buf

let pcdata_only t x =
  if is_text_leaf t x then true
  else begin
    let rec check c count =
      if c = nil then count <= 1
      else begin
        let tg = tag_of t c in
        if tg = text_tag || tg = attval_tag then check (Tree_backend.next_sibling t.tree c) (count + 1)
        else false
      end
    in
    check (Tree_backend.first_child t.tree x) 0
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

(* One left-to-right scan over the subtree's parentheses, read in
   chunks of [stride].  Every position carries its tag, so a closing
   parenthesis names the end tag it writes; the only state is the text
   counter (started at the subtree's first leaf rank), whether a start
   tag still waits for its ">" or "/>", and whether the scan is inside
   an attribute list.  With a budget, the bytes written so far are
   charged and the deadline is read after every chunk, and the rest at
   the end.  Nothing here allocates per node or per text. *)
let stride = 4096

(* The chunk array, one per domain and reused across calls.  A call
   takes it out of the slot while it scans, so a second serialization
   on the same domain (a systhread) gets its own. *)
let chunk_slot : int array option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Charge the serialized bytes written since the last call ([charged]
   of them were charged before); returns the new running total.  The
   [dots] that stuffing added are not part of the serialization. *)
let charge budget buf ~start ~dots ~charged =
  let written = Buffer.length buf - start - dots in
  (match budget with
  | None -> ()
  | Some b -> Sxsi_qos.Budget.add_bytes b (written - charged));
  written

let add_text ~framed ~quote buf t d =
  Xml_parser.add_escaped ~stuff:framed ~quote buf (get_text t d)

(* a single text: the node is a leaf, or an attribute with its value *)
let text_node budget ~framed buf t d =
  let start = Buffer.length buf in
  let dots = add_text ~framed ~quote:false buf t d in
  ignore (charge budget buf ~start ~dots ~charged:0 : int)

(* an element or the root *)
let scan_element budget ~framed buf t x =
  let start = Buffer.length buf in
  let stop = Tree_backend.close t.tree x + 1 in
  let slot = Domain.DLS.get chunk_slot in
  let chunk =
    match !slot with
    | Some a ->
      slot := None;
      a
    | None -> Array.make stride 0
  in
  let next_text = ref (text_id_of_leaf t x) in
  let pending = ref false and in_attrs = ref false in
  let pos = ref x and dots = ref 0 and charged = ref 0 in
  while !pos < stop do
    let len = min stride (stop - !pos) in
    Tree_backend.parens_into t.tree !pos chunk len;
    for k = 0 to len - 1 do
      let sym = Array.unsafe_get chunk k in
      let tg = sym lsr 1 in
      if sym land 1 = 0 then begin
        if tg = text_tag || tg = attval_tag then begin
          if !pending && not !in_attrs then begin
            Buffer.add_char buf '>';
            pending := false
          end;
          dots := !dots + add_text ~framed ~quote:!in_attrs buf t !next_text;
          incr next_text
        end
        else if tg = attlist_tag then in_attrs := true
        else if !in_attrs then begin
          let name = t.names.(tg) in
          Buffer.add_char buf ' ';
          Buffer.add_substring buf name 1 (String.length name - 1);
          Buffer.add_string buf "=\""
        end
        else if tg <> root_tag then begin
          if !pending then Buffer.add_char buf '>';
          Buffer.add_char buf '<';
          Buffer.add_string buf t.names.(tg);
          pending := true
        end
      end
      else if tg = attlist_tag then in_attrs := false
      else if !in_attrs then (if t.attr_tag.(tg) then Buffer.add_char buf '"')
      else if t.elem_tag.(tg) then begin
        if !pending then begin
          Buffer.add_string buf "/>";
          pending := false
        end
        else begin
          Buffer.add_string buf "</";
          Buffer.add_string buf t.names.(tg);
          Buffer.add_char buf '>'
        end
      end
    done;
    pos := !pos + len;
    if !pos < stop then begin
      charged := charge budget buf ~start ~dots:!dots ~charged:!charged;
      Option.iter Sxsi_qos.Budget.check_now budget
    end
  done;
  slot := Some chunk;
  ignore (charge budget buf ~start ~dots:!dots ~charged:!charged : int)

let serialize_into ?budget ?(framed = false) buf t x =
  let tg = tag_of t x in
  if tg = text_tag || tg = attval_tag then text_node budget ~framed buf t (text_id_of_leaf t x)
  else if t.attr_tag.(tg) then begin
    (* attribute node on its own: serialize as its value *)
    let lo, hi = text_range t x in
    if hi > lo then text_node budget ~framed buf t lo
  end
  else if tg <> attlist_tag then scan_element budget ~framed buf t x;
  if framed then Buffer.add_char buf '\n'

let serialize t x =
  let buf = Buffer.create 256 in
  serialize_into buf t x;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let tree_space_bits t =
  Tree_backend.space_bits t.tree + Tag_rel.space_bits t.rel

let text_space_bits t = Text_collection.space_bits t.text
let space_bits t = tree_space_bits t + text_space_bits t
