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

  let to_array g = Array.sub g.a 0 g.n
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
  mutable frames : (int ref * int ref) list;   (* non-text kids, text kids *)
  pcdata_flag : (int, bool) Hashtbl.t;
  (* relation recording *)
  rel_seen : (int * int * int, unit) Hashtbl.t;
  mutable rel_pairs : (Tag_rel.relation * int * int) list;
  mutable ancestors : int list;          (* tag stack, top = current node *)
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
      frames = [];
      pcdata_flag = Hashtbl.create 64;
      rel_seen = Hashtbl.create 256;
      rel_pairs = [];
      ancestors = [];
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
  let key = (rel_code rel, a, tg) in
  if not (Hashtbl.mem b.rel_seen key) then begin
    Hashtbl.add b.rel_seen key ();
    b.rel_pairs <- (rel, a, tg) :: b.rel_pairs
  end

let open_node b tg ~leaf =
  (* relations with the context *)
  (match b.ancestors with
  | parent :: _ -> record_rel b Tag_rel.Child parent tg
  | [] -> ());
  List.iter (fun a -> record_rel b Tag_rel.Descendant a tg) b.ancestors;
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
  b.sibling_frames <- [] :: b.sibling_frames;
  (match b.frames with
  | (nontext, text) :: _ ->
    if tg = text_tag then incr text else incr nontext
  | [] -> ());
  b.frames <- (ref 0, ref 0) :: b.frames

let close_node b =
  match b.ancestors with
  | [] -> invalid_arg "Document: unbalanced close"
  | tg :: rest ->
    Bp.Builder.close_node b.bpb;
    Grow.push b.tag_seq tg;
    Bitvec.Builder.push b.leaf_bits false;
    b.ancestors <- rest;
    b.sibling_frames <- List.tl b.sibling_frames;
    (match b.frames with
    | (nontext, text) :: frest ->
      b.frames <- frest;
      let ok = !nontext = 0 && !text <= 1 in
      (match Hashtbl.find_opt b.pcdata_flag tg with
      | Some prev -> Hashtbl.replace b.pcdata_flag tg (prev && ok)
      | None -> Hashtbl.replace b.pcdata_flag tg ok)
    | [] -> ());
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
  let names = Array.of_list (List.rev b.names_rev) in
  let texts = Array.of_list (List.rev b.texts_rev) in
  let backend = match backend with Some bk -> bk | None -> default_backend () in
  (* The tree structures and the text collection depend on disjoint
     builder output, so with a pool the two builds overlap (each also
     chunks internally across the same pool). *)
  let build_tree () =
    J.with_span J.Engine n_tree @@ fun () ->
    match backend with
    | `Bp ->
      let tag_index =
        Tag_index.build ?pool bp ~tag_count:(Array.length names)
          ~tags:(Grow.to_array b.tag_seq)
      in
      Tree_backend.of_bp ~bp ~tags:tag_index
        ~leaves:(Bitvec.Builder.finish b.leaf_bits)
    | `Grammar ->
      (* the parenthesis sequence with its tags, one terminal per
         position (the in-memory Bp just built supplies direction) *)
      let tags = Grow.to_array b.tag_seq in
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

let serialize t x =
  let buf = Buffer.create 256 in
  let rec children_of x f =
    let c = ref (Tree_backend.first_child t.tree x) in
    while !c <> nil do
      f !c;
      c := Tree_backend.next_sibling t.tree !c
    done
  and emit x =
    let tg = tag_of t x in
    if tg = text_tag then
      Buffer.add_string buf (Xml_parser.escape_text (get_text t (text_id_of_leaf t x)))
    else if tg = attval_tag then
      Buffer.add_string buf (Xml_parser.escape_text (get_text t (text_id_of_leaf t x)))
    else if tg = root_tag then children_of x emit
    else if tg = attlist_tag then ()
    else if t.attr_tag.(tg) then begin
      (* attribute node on its own: serialize as its value *)
      let lo, hi = text_range t x in
      if hi > lo then Buffer.add_string buf (Xml_parser.escape_text (get_text t lo))
    end
    else begin
      let name = t.names.(tg) in
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      (* attributes live under a first child labeled "@" *)
      let first = Tree_backend.first_child t.tree x in
      let has_attlist = first <> nil && tag_of t first = attlist_tag in
      if has_attlist then
        children_of first (fun a ->
            let aname = t.names.(tag_of t a) in
            Buffer.add_char buf ' ';
            Buffer.add_string buf (String.sub aname 1 (String.length aname - 1));
            Buffer.add_string buf "=\"";
            let lo, hi = text_range t a in
            if hi > lo then Buffer.add_string buf (Xml_parser.escape_attr (get_text t lo));
            Buffer.add_string buf "\"");
      let content_start = if has_attlist then Tree_backend.next_sibling t.tree first else first in
      if content_start = nil then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let c = ref content_start in
        while !c <> nil do
          emit !c;
          c := Tree_backend.next_sibling t.tree !c
        done;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end
    end
  in
  emit x;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let tree_space_bits t =
  Tree_backend.space_bits t.tree + Tag_rel.space_bits t.rel

let text_space_bits t = Text_collection.space_bits t.text
let space_bits t = tree_space_bits t + text_space_bits t
