(* XML parser and document model tests, including the paper's Figure 1
   running example and parse -> serialize round-trips. *)

open Sxsi_xml
open Sxsi_tree

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The paper's Figure 1 document, whitespace dropped to match the
   figure's model (the figure omits the 7 whitespace texts). *)
let fig1_xml =
  "<parts>\n\
   <part name=\"pen\">\n\
  \   <color>blue</color>\n\
  \   <stock>40</stock>\n\
  \   Soon discontinued.\n\
   </part>\n\
   <part name=\"rubber\">\n\
  \   <stock>30</stock>\n\
   </part>\n\
   </parts>"

let fig1 () = Document.of_xml ~keep_whitespace:false fig1_xml

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let collect_events src =
  let evs = ref [] in
  Xml_parser.parse
    ~on_open:(fun n attrs -> evs := `Open (n, attrs) :: !evs)
    ~on_close:(fun n -> evs := `Close n :: !evs)
    ~on_text:(fun s -> evs := `Text s :: !evs)
    src;
  List.rev !evs

let test_parser_basic () =
  let evs = collect_events "<a x=\"1\" y=\"two\">hi<b/>there</a>" in
  Alcotest.(check int) "event count" 6 (List.length evs);
  (match evs with
  | [ `Open ("a", [ ("x", "1"); ("y", "two") ]); `Text "hi"; `Open ("b", []);
      `Close "b"; `Text "there"; `Close "a" ] ->
    ()
  | _ -> Alcotest.fail "unexpected events")

let test_parser_entities () =
  let evs = collect_events "<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>" in
  (match evs with
  | [ `Open _; `Text t; `Close _ ] ->
    Alcotest.(check string) "decoded" "x & y <z> AB" t
  | _ -> Alcotest.fail "unexpected events")

let test_parser_cdata_comment_pi () =
  let evs =
    collect_events
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a><!-- c --><![CDATA[<raw>&amp;]]></a>"
  in
  (match evs with
  | [ `Open ("a", []); `Text t; `Close "a" ] ->
    Alcotest.(check string) "cdata verbatim" "<raw>&amp;" t
  | _ -> Alcotest.fail "unexpected events")

let test_parser_merges_text_runs () =
  let evs = collect_events "<a>one<!-- x -->two&amp;<![CDATA[three]]></a>" in
  (match evs with
  | [ `Open _; `Text t; `Close _ ] ->
    Alcotest.(check string) "merged" "onetwo&three" t
  | _ -> Alcotest.fail "text runs not merged")

let test_parser_rejects () =
  let bad s =
    match collect_events s with
    | exception Xml_parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "mismatched close" true (bad "<a></b>");
  Alcotest.(check bool) "unclosed" true (bad "<a><b></b>");
  Alcotest.(check bool) "stray close" true (bad "</a>");
  Alcotest.(check bool) "unterminated comment" true (bad "<a><!-- </a>");
  Alcotest.(check bool) "text outside root" true (bad "hello<a/>");
  Alcotest.(check bool) "bad entity" true (bad "<a>&bogus;</a>");
  Alcotest.(check bool) "lt in attribute" true (bad "<a x=\"<\"/>")

let test_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Xml_parser.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "&quot;x&amp;" (Xml_parser.escape_attr "\"x&");
  Alcotest.(check string) "clean untouched" "hello" (Xml_parser.escape_text "hello")

(* ------------------------------------------------------------------ *)
(* Document model (Figure 1)                                            *)
(* ------------------------------------------------------------------ *)

let test_fig1_model () =
  let d = fig1 () in
  (* &, parts, 2x part, 2x @, 2x @name(attr), 2x %, name?? — model:
     & parts part @ name % # color # stock # part @ name % stock # = 17 *)
  Alcotest.(check int) "node count" 17 (Document.node_count d);
  Alcotest.(check int) "text count" 6 (Document.text_count d);
  Alcotest.(check (array string)) "texts in order"
    [| "pen"; "blue"; "40"; "\n   Soon discontinued.\n"; "rubber"; "30" |]
    (Document.texts d)

let test_fig1_texts_order () =
  let d = fig1 () in
  (* text ids are assigned left-to-right *)
  Alcotest.(check string) "text 0" "pen" (Document.get_text d 0);
  Alcotest.(check string) "text 1" "blue" (Document.get_text d 1);
  Alcotest.(check string) "text 4" "rubber" (Document.get_text d 4);
  Alcotest.(check string) "text 5" "30" (Document.get_text d 5)

let test_fig1_tags () =
  let d = fig1 () in
  let parts = Option.get (Document.tag_id d "parts") in
  let part = Option.get (Document.tag_id d "part") in
  let name = Option.get (Document.attribute_tag_id d "name") in
  Alcotest.(check bool) "parts is element" true (Document.is_element_tag d parts);
  Alcotest.(check bool) "@name is attribute" true (Document.is_attribute_tag d name);
  Alcotest.(check bool) "@name not element" false (Document.is_element_tag d name);
  Alcotest.(check (option int)) "no bogus tag" None (Document.tag_id d "bogus");
  let tree = Document.tree d in
  Alcotest.(check int) "2 parts" 2 (Tree_backend.count tree part);
  Alcotest.(check int) "1 partss" 1 (Tree_backend.count tree parts)

let test_fig1_structure () =
  let d = fig1 () in
  let tree = Document.tree d in
  let root = Document.root d in
  Alcotest.(check int) "root tag" Document.root_tag (Document.tag_of d root);
  let parts = Tree_backend.first_child tree root in
  Alcotest.(check string) "parts" "parts" (Document.tag_name d (Document.tag_of d parts));
  let part1 = Tree_backend.first_child tree parts in
  let attlist = Tree_backend.first_child tree part1 in
  Alcotest.(check int) "@ first child" Document.attlist_tag (Document.tag_of d attlist);
  let attr = Tree_backend.first_child tree attlist in
  Alcotest.(check string) "@name" "@name" (Document.tag_name d (Document.tag_of d attr));
  Alcotest.(check string) "attr value" "pen" (Document.string_value d attr);
  (* text range of part1 covers texts 0-3 *)
  Alcotest.(check (pair int int)) "text range" (0, 4) (Document.text_range d part1)

let test_fig1_string_value () =
  let d = fig1 () in
  let tree = Document.tree d in
  let parts = Tree_backend.first_child tree (Document.root d) in
  let part1 = Tree_backend.first_child tree parts in
  (* string-value excludes the attribute value "pen" *)
  Alcotest.(check string) "part1 string-value" "blue40\n   Soon discontinued.\n"
    (Document.string_value d part1);
  let color = (* second child after @ *)
    Tree_backend.next_sibling tree (Tree_backend.first_child tree part1)
  in
  Alcotest.(check string) "color" "blue" (Document.string_value d color);
  Alcotest.(check bool) "color is pcdata" true (Document.pcdata_only d color);
  Alcotest.(check bool) "part1 not pcdata" false (Document.pcdata_only d part1)

let test_fig1_serialize () =
  let d = fig1 () in
  let out = Document.serialize d (Document.root d) in
  Alcotest.(check string) "round trip"
    "<parts><part name=\"pen\"><color>blue</color><stock>40</stock>\n   Soon discontinued.\n\
     </part><part name=\"rubber\"><stock>30</stock></part></parts>"
    out

let test_whitespace_kept () =
  let d = Document.of_xml ~keep_whitespace:true "<a> <b>x</b> </a>" in
  Alcotest.(check int) "3 texts" 3 (Document.text_count d);
  let d2 = Document.of_xml ~keep_whitespace:false "<a> <b>x</b> </a>" in
  Alcotest.(check int) "1 text" 1 (Document.text_count d2)

let test_empty_element_document () =
  let d = Document.of_xml "<a/>" in
  Alcotest.(check int) "2 nodes" 2 (Document.node_count d);
  Alcotest.(check int) "0 texts" 0 (Document.text_count d);
  Alcotest.(check string) "serialize" "<a/>" (Document.serialize d (Document.root d));
  Alcotest.(check string) "string_value" "" (Document.string_value d (Document.root d))

let test_attr_without_value () =
  let d = Document.of_xml "<a x=\"\">t</a>" in
  (* & a @ @x # : the empty attribute value creates no % leaf *)
  Alcotest.(check int) "nodes" 5 (Document.node_count d);
  Alcotest.(check int) "texts" 1 (Document.text_count d);
  Alcotest.(check string) "serialize" "<a x=\"\">t</a>"
    (Document.serialize d (Document.root d))

let test_tag_rel_recorded () =
  let d = Document.of_xml "<a><b><c/></b><b/><d/></a>" in
  let r = Document.rel d in
  let id n = Option.get (Document.tag_id d n) in
  Alcotest.(check bool) "a child b" true (Tag_rel.mem r Tag_rel.Child (id "a") (id "b"));
  Alcotest.(check bool) "a desc c" true
    (Tag_rel.mem r Tag_rel.Descendant (id "a") (id "c"));
  Alcotest.(check bool) "a child c" false (Tag_rel.mem r Tag_rel.Child (id "a") (id "c"));
  Alcotest.(check bool) "b fsib b" true
    (Tag_rel.mem r Tag_rel.Following_sibling (id "b") (id "b"));
  Alcotest.(check bool) "b fsib d" true
    (Tag_rel.mem r Tag_rel.Following_sibling (id "b") (id "d"));
  Alcotest.(check bool) "d fsib b" false
    (Tag_rel.mem r Tag_rel.Following_sibling (id "d") (id "b"));
  Alcotest.(check bool) "c following d" true
    (Tag_rel.mem r Tag_rel.Following (id "c") (id "d"));
  Alcotest.(check bool) "d following c" false
    (Tag_rel.mem r Tag_rel.Following (id "d") (id "c"))

(* A tag repeated on the ancestor stack stays an ancestor until its
   outermost occurrence closes. *)
let test_tag_rel_repeated_ancestors () =
  let d = Document.of_xml "<a><b><a><c/></a><e/></b><d/></a><f/>" in
  let r = Document.rel d in
  let id n = Option.get (Document.tag_id d n) in
  let desc a b = Tag_rel.mem r Tag_rel.Descendant (id a) (id b) in
  List.iter
    (fun (a, b, want) -> Alcotest.(check bool) (a ^ " desc " ^ b) want (desc a b))
    [
      ("a", "a", true); ("a", "c", true); ("b", "a", true); ("b", "c", true);
      ("b", "e", true); ("a", "e", true); ("a", "d", true); ("b", "d", false);
      ("c", "e", false); ("a", "f", false); ("b", "f", false);
    ]

(* ------------------------------------------------------------------ *)
(* Round-trip property on random documents                              *)
(* ------------------------------------------------------------------ *)

let gen_xml : string QCheck2.Gen.t =
  (* random small documents with text, attributes, nesting *)
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "item"; "x" ] in
  let text = oneofl [ "t"; "hello"; "x&y"; "a<b"; "zz" ] in
  let rec elem depth =
    let* n = name in
    let* attrs =
      if depth > 2 then return []
      else
        list_size (int_range 0 2)
          (let* an = oneofl [ "k"; "id" ] in
           let* av = oneofl [ "v1"; "a\"b"; "x&y" ] in
           return (an, av))
    in
    (* unique attribute names *)
    let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs in
    let* kids =
      if depth >= 3 then return []
      else
        list_size (int_range 0 3)
          (oneof [ map (fun t -> `T t) text; map (fun e -> `E e) (elem (depth + 1)) ])
    in
    let buf = Buffer.create 64 in
    Buffer.add_char buf '<';
    Buffer.add_string buf n;
    List.iter
      (fun (a, v) ->
        Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" a (Xml_parser.escape_attr v)))
      attrs;
    if kids = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      List.iter
        (function
          | `T t -> Buffer.add_string buf (Xml_parser.escape_text t)
          | `E e -> Buffer.add_string buf e)
        kids;
      Buffer.add_string buf "</";
      Buffer.add_string buf n;
      Buffer.add_char buf '>'
    end;
    return (Buffer.contents buf)
  in
  elem 0

let prop_roundtrip =
  qtest "parse -> serialize is stable" gen_xml (fun src ->
      let d = Document.of_xml src in
      let once = Document.serialize d (Document.root d) in
      let d2 = Document.of_xml once in
      let twice = Document.serialize d2 (Document.root d2) in
      once = twice
      && Document.node_count d = Document.node_count d2
      && Document.texts d = Document.texts d2)

let prop_text_leaf_maps =
  qtest "leaf_of_text / text_id_of_leaf are inverse" gen_xml (fun src ->
      let d = Document.of_xml src in
      let ok = ref true in
      for i = 0 to Document.text_count d - 1 do
        let leaf = Document.leaf_of_text d i in
        if Document.text_id_of_leaf d leaf <> i then ok := false;
        if not (Document.is_text_leaf d leaf) then ok := false
      done;
      !ok)

let prop_preorder_global_ids =
  qtest "preorder ids are dense and ordered" gen_xml (fun src ->
      let d = Document.of_xml src in
      let tree = Document.tree d in
      let seen = Array.make (Document.node_count d) false in
      let rec go x =
        if x <> Document.nil then begin
          seen.(Document.preorder d x) <- true;
          go (Tree_backend.first_child tree x);
          go (Tree_backend.next_sibling tree x)
        end
      in
      go (Document.root d);
      Array.for_all (fun b -> b) seen)

(* ------------------------------------------------------------------ *)
(* Index container: save/load round trip and corruption rejection       *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "sxsi_test" ".sxsi" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let queries_of = [ "//*"; "//item"; "//a[contains(., 't')]"; "//*[@k]"; "//text()" ]

let query_results doc =
  List.map
    (fun q ->
      Sxsi_core.Engine.select_preorders (Sxsi_core.Engine.prepare doc q) |> Array.to_list)
    queries_of

let prop_save_load_roundtrip =
  qtest ~count:30 "save -> load preserves query results" gen_xml (fun src ->
      let d = Document.of_xml src in
      with_temp_file (fun path ->
          Document.save d path;
          let d2 = Document.load path in
          query_results d = query_results d2
          && Document.node_count d = Document.node_count d2
          && Document.texts d = Document.texts d2
          && Document.serialize d (Document.root d)
             = Document.serialize d2 (Document.root d2)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let load_fails path =
  match Document.load path with
  | _ -> false
  | exception Failure _ -> true

let test_load_rejects_corruption () =
  let d = fig1 () in
  with_temp_file (fun path ->
      Document.save d path;
      let good = read_file path in
      (* sanity: the pristine file loads *)
      Alcotest.(check bool) "pristine loads" true
        (match Document.load path with _ -> true | exception _ -> false);
      (* truncated at every interesting boundary *)
      List.iter
        (fun k ->
          write_file path (String.sub good 0 k);
          Alcotest.(check bool)
            (Printf.sprintf "truncated to %d bytes rejected" k)
            true (load_fails path))
        [ 0; 5; 14; 22; 38; String.length good / 2; String.length good - 1 ];
      (* one flipped byte in the payload breaks the checksum *)
      let flipped = Bytes.of_string good in
      let mid = 38 + ((Bytes.length flipped - 38) / 2) in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
      write_file path (Bytes.to_string flipped);
      Alcotest.(check bool) "bit flip rejected" true (load_fails path);
      (* wrong magic / plain garbage *)
      write_file path ("GARBAGE" ^ good);
      Alcotest.(check bool) "bad magic rejected" true (load_fails path);
      write_file path (String.make 4096 '\x42');
      Alcotest.(check bool) "garbage rejected" true (load_fails path))

let test_utf8 () =
  (* multibyte content passes through byte-transparently; numeric
     references decode to UTF-8 *)
  let d = Document.of_xml "<a>caf\xc3\xa9 &#233; &#x4e2d;</a>" in
  Alcotest.(check string) "text" "caf\xc3\xa9 \xc3\xa9 \xe4\xb8\xad" (Document.get_text d 0);
  let c = Sxsi_core.Engine.prepare d "//a[contains(., 'caf\xc3\xa9')]" in
  Alcotest.(check int) "query over UTF-8" 1 (Sxsi_core.Engine.count c)

let prop_parser_never_crashes =
  qtest ~count:300 "parser: random bytes give Parse_error or a document"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 1 127)) (int_range 0 60))
    (fun junk ->
      match Document.of_xml junk with
      | _ -> true
      | exception Xml_parser.Parse_error _ -> true)

let prop_parser_never_crashes_tagged =
  qtest ~count:300 "parser: tag soup gives Parse_error or a document"
    QCheck2.Gen.(
      list_size (int_range 0 20)
        (oneofl [ "<a>"; "</a>"; "<b/>"; "txt"; "<"; ">"; "&amp;"; "&"; "<!--"; "-->";
                  "<a x='1'>"; "]]>"; "<![CDATA["; "<?pi?>" ])
      |> map (String.concat ""))
    (fun soup ->
      match Document.of_xml soup with
      | _ -> true
      | exception Xml_parser.Parse_error _ -> true)

let suite =
  ( "xml",
    [
      Alcotest.test_case "parser basic" `Quick test_parser_basic;
      Alcotest.test_case "parser entities" `Quick test_parser_entities;
      Alcotest.test_case "parser cdata/comment/pi" `Quick test_parser_cdata_comment_pi;
      Alcotest.test_case "parser merges text" `Quick test_parser_merges_text_runs;
      Alcotest.test_case "parser rejects malformed" `Quick test_parser_rejects;
      Alcotest.test_case "escaping" `Quick test_escape;
      Alcotest.test_case "fig1 model" `Quick test_fig1_model;
      Alcotest.test_case "fig1 texts order" `Quick test_fig1_texts_order;
      Alcotest.test_case "fig1 tags" `Quick test_fig1_tags;
      Alcotest.test_case "fig1 structure" `Quick test_fig1_structure;
      Alcotest.test_case "fig1 string-value" `Quick test_fig1_string_value;
      Alcotest.test_case "fig1 serialize" `Quick test_fig1_serialize;
      Alcotest.test_case "whitespace option" `Quick test_whitespace_kept;
      Alcotest.test_case "empty element" `Quick test_empty_element_document;
      Alcotest.test_case "empty attribute" `Quick test_attr_without_value;
      Alcotest.test_case "tag_rel recorded" `Quick test_tag_rel_recorded;
      Alcotest.test_case "tag_rel repeated ancestors" `Quick test_tag_rel_repeated_ancestors;
      Alcotest.test_case "utf-8" `Quick test_utf8;
      Alcotest.test_case "load rejects corruption" `Quick test_load_rejects_corruption;
      prop_save_load_roundtrip;
      prop_roundtrip;
      prop_text_leaf_maps;
      prop_preorder_global_ids;
      prop_parser_never_crashes;
      prop_parser_never_crashes_tagged;
    ] )
