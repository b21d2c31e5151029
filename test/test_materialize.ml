(* The materialize path: Document.serialize_into against the DOM
   oracle's serializer on every corpus and both tree backends, the
   inline DATA framing against Protocol's encoder, the allocation of a
   whole-document MATERIALIZE, and budgets that trip inside one node's
   serialization. *)

open Sxsi_xml
open Sxsi_baseline
module Service = Sxsi_service.Service
module Protocol = Sxsi_service.Protocol

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let backends = [ ("bp", `Bp); ("grammar", `Grammar) ]

(* DOM nodes by preorder: both models number their nodes alike *)
let dom_by_id dom =
  let a = Array.make (Dom.node_count dom) (Dom.root dom) in
  let rec go (n : Dom.node) =
    a.(n.id) <- n;
    List.iter go n.children
  in
  go (Dom.root dom);
  a

(* ------------------------------------------------------------------ *)
(* Differential: every k-th node of the generated corpora               *)
(* ------------------------------------------------------------------ *)

let corpora =
  lazy
    [
      ("xmark", Sxsi_datagen.Xmark.generate ~scale:20 ());
      ("medline", Sxsi_datagen.Medline.generate ~citations:30 ());
      ("treebank", Sxsi_datagen.Treebank.generate ~sentences:60 ());
      ("wiki", Sxsi_datagen.Wiki.generate ~pages:40 ());
      ("logs", Sxsi_datagen.Logs.generate ~entries:150 ());
    ]

(* k = 7 is prime to the model's small periods (leaf + close, attribute
   triples), so the sample reaches every node kind, the root included *)
let test_corpora backend () =
  List.iter
    (fun (name, xml) ->
      let doc = Document.of_xml ~backend xml in
      let dom = dom_by_id (Dom.of_xml xml) in
      let tree = Document.tree doc in
      let checked = ref 0 in
      let p = ref 0 in
      while !p < Document.node_count doc do
        let x = Sxsi_tree.Tree_backend.node_of_preorder tree !p in
        let got = Document.serialize doc x and want = Dom.serialize dom.(!p) in
        if got <> want then
          Alcotest.failf "%s: node %d (preorder) serializes as %S, DOM says %S" name !p
            got want;
        incr checked;
        p := !p + 7
      done;
      if !checked < 20 then Alcotest.failf "%s: only %d nodes checked" name !checked)
    (Lazy.force corpora)

(* ------------------------------------------------------------------ *)
(* Hand-written cases                                                  *)
(* ------------------------------------------------------------------ *)

let hand_xml =
  "<doc>\n\
   <p id=\"a1\" note=\"x &amp; y &lt; z &gt; &quot;q&quot;\">line one\n\
   .dot line\n\
   ..two dots\n\
   end &amp; &lt;tag&gt; \"quoted\"</p>\n\
   <empty/><empty></empty>\n\
   <attronly id=\"a2\" k=\"\"/>\n\
   <mixed>a<b>bold</b>.c<i/>d\n\
   .e<!-- split -->\n\
   .f</mixed>\n\
   <nl id=\".a3\" v=\"multi&#10;.line&#10;\"/>\n\
   .\n\
   </doc>"

let hand_queries =
  [ "/"; "/doc"; "//p"; "//empty"; "//attronly"; "//mixed"; "//mixed/node()"; "//nl";
    "//@id"; "//@*"; "//text()"; "//*" ]

(* MATERIALIZE of [q] through the service must be exactly the DATA
   block the encoder makes from the DOM's serializations *)
let check_materialize svc dom q =
  let want =
    Protocol.encode_data
      (List.map Dom.serialize (Naive_eval.eval dom (Sxsi_xpath.Xpath_parser.parse q)))
  in
  let got = Protocol.print_response (Service.handle_line svc ("MATERIALIZE d " ^ q)) in
  if got <> want then Alcotest.failf "MATERIALIZE %s:\n got %S\nwant %S" q got want

let test_hand_cases backend () =
  let doc = Document.of_xml ~backend hand_xml in
  let dom = Dom.of_xml hand_xml in
  let svc = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  Service.add_document svc "d" doc;
  List.iter
    (fun q ->
      let nodes = Sxsi_core.Engine.select (Sxsi_core.Engine.prepare doc q) in
      let dom_nodes = Naive_eval.eval dom (Sxsi_xpath.Xpath_parser.parse q) in
      Alcotest.(check (list string))
        ("serialize " ^ q)
        (List.map Dom.serialize dom_nodes)
        (Array.to_list (Array.map (Document.serialize doc) nodes));
      check_materialize svc dom q)
    hand_queries;
  (* the cases the table is there for, spelled out once *)
  let one q = Document.serialize doc (Sxsi_core.Engine.select (Sxsi_core.Engine.prepare doc q)).(0) in
  Alcotest.(check string) "empty element" "<empty/>" (one "//empty");
  Alcotest.(check string) "attribute-only element" "<attronly id=\"a2\" k=\"\"/>" (one "//attronly");
  Alcotest.(check string) "attribute node on its own: text escapes"
    "x &amp; y &lt; z &gt; \"q\"" (one "//p/@note");
  let p = one "//p" in
  Alcotest.(check string) "escapes in attribute values and texts"
    "<p id=\"a1\" note=\"x &amp; y &lt; z &gt; &quot;q&quot;\">line one\n.dot line\n..two dots\nend &amp; &lt;tag&gt; \"quoted\"</p>"
    p;
  Alcotest.(check string) "attribute value with newlines" "<nl id=\".a3\" v=\"multi\n.line\n\"/>"
    (one "//nl");
  (* lines of a text that start with '.' are stuffed on the wire *)
  let wire = Protocol.print_response (Service.handle_line svc "MATERIALIZE d //p") in
  Alcotest.(check bool) "dot line stuffed" true
    (List.mem "..dot line" (String.split_on_char '\n' wire)
    && List.mem "...two dots" (String.split_on_char '\n' wire))

(* ------------------------------------------------------------------ *)
(* Framing properties                                                   *)
(* ------------------------------------------------------------------ *)

let gen_part =
  QCheck2.Gen.(map (String.concat "") (list_size (int_range 0 8) (oneofl [ "a"; "."; "\n" ])))

(* the wire form written out longhand, as the protocol defines it *)
let reference_wire lines =
  "DATA\n"
  ^ String.concat ""
      (List.map
         (fun l -> (if String.length l > 0 && l.[0] = '.' then "." ^ l else l) ^ "\n")
         lines)
  ^ ".\n"

let prop_encoder =
  qtest ~count:300 "DATA encoder matches print_response"
    QCheck2.Gen.(list_size (int_range 0 6) gen_part)
    (fun parts ->
      let lines = List.concat_map (String.split_on_char '\n') parts in
      let enc = Protocol.encode_data parts in
      enc = Protocol.print_response (Protocol.Data lines) && enc = reference_wire lines)

(* texts and attribute values over a, '.', newline, '&', '"' and '<': the framed
   serializer stuffs exactly where the encoder would *)
let gen_value =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 1 6) (oneofl [ "a"; "."; "\n"; "&amp;"; "&quot;"; "&lt;" ])))

let prop_framed_matches_encoder =
  qtest ~count:60 "framed serialization matches the encoder"
    QCheck2.Gen.(list_size (int_range 1 4) (pair gen_value gen_value))
    (fun items ->
      let xml =
        "<r>"
        ^ String.concat ""
            (List.map
               (fun (t, v) ->
                 Printf.sprintf "<e v=\"%s\">%s<f/>%s</e>"
                   (String.concat "&#10;" (String.split_on_char '\n' v))
                   t t)
               items)
        ^ "</r>"
      in
      let dom = Dom.of_xml xml in
      List.for_all
        (fun (_, backend) ->
          let svc = Service.create () in
          Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
          Service.add_document svc "d" (Document.of_xml ~backend xml);
          List.iter (check_materialize svc dom) [ "//e"; "/r"; "//text()"; "//@v" ];
          true)
        backends)

(* ------------------------------------------------------------------ *)
(* Allocation and budgets                                               *)
(* ------------------------------------------------------------------ *)

let big_doc =
  lazy
    (let xml = Sxsi_datagen.Xmark.generate ~scale:4200 () in
     (String.length xml, Document.of_xml xml))

let service_on ?(options = Service.default_options) doc =
  let svc =
    Service.create ~options:{ options with compiled_cache = 0; count_cache = 0 } ()
  in
  Service.add_document svc "d" doc;
  svc

(* the bytes a call allocates: the least of three calls, so that a
   one-off growth of process-wide tables (the profiler's, when an
   earlier test left it running) is not charged to the request *)
let allocated f =
  let once () =
    let a0 = Gc.allocated_bytes () in
    let v = f () in
    (Gc.allocated_bytes () -. a0, v)
  in
  let bytes, v = List.fold_left min (once ()) [ once (); once () ] in
  (v, bytes)

(* X13-style: the whole document in one MATERIALIZE *)
let test_whole_document_allocation () =
  let _, doc = Lazy.force big_doc in
  let svc = service_on doc in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let run () = Protocol.print_response (Service.handle_line svc "MATERIALIZE d /*[.//*]") in
  ignore (run ());
  let wire, bytes = allocated run in
  let per_byte = bytes /. float_of_int (String.length wire) in
  if String.length wire < 4_000_000 then
    Alcotest.failf "reply is %d bytes, expected the whole document" (String.length wire);
  if per_byte > 2.0 then Alcotest.failf "%.2f bytes allocated per reply byte (> 2.0)" per_byte

let test_byte_cap_trips_early () =
  let xml_len, doc = Lazy.force big_doc in
  Alcotest.(check bool) "document of 4 MB or more" true (xml_len >= 4_000_000);
  let svc = service_on ~options:{ Service.default_options with max_result_bytes = 65536 } doc in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let resp, bytes = allocated (fun () -> Service.handle_line svc "MATERIALIZE d /*[.//*]") in
  Alcotest.(check (option string)) "ERR BUDGET" (Some "BUDGET") (Protocol.err_code resp);
  if bytes > 1e6 then Alcotest.failf "allocated %.0f bytes before failing (> 1 MB)" bytes

let test_deadline_trips_in_serialization () =
  let _, doc = Lazy.force big_doc in
  let svc = service_on doc in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let resp = Service.handle_line ~deadline_ms:1 svc "MATERIALIZE d /*[.//*]" in
  Alcotest.(check (option string)) "ERR DEADLINE" (Some "DEADLINE") (Protocol.err_code resp)

(* charging while writing keeps the outcome: ERR BUDGET exactly when
   the serialized total exceeds the cap *)
let test_byte_cap_boundary () =
  let xml = Sxsi_datagen.Xmark.generate ~scale:30 () in
  let doc = Document.of_xml xml in
  List.iter
    (fun q ->
      let total =
        Array.fold_left
          (fun acc x -> acc + String.length (Document.serialize doc x))
          0
          (Sxsi_core.Engine.select (Sxsi_core.Engine.prepare doc q))
      in
      let code cap =
        let svc =
          service_on ~options:{ Service.default_options with max_result_bytes = cap } doc
        in
        Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
        Protocol.err_code (Service.handle_line svc ("MATERIALIZE d " ^ q))
      in
      Alcotest.(check (option string)) (q ^ " at the cap") None (code total);
      Alcotest.(check (option string)) (q ^ " one byte under") (Some "BUDGET") (code (total - 1)))
    [ "/*[.//*]"; "//item"; "//@id"; "//text()" ]

let suite =
  ( "materialize",
    List.map
      (fun (name, backend) ->
        Alcotest.test_case ("serialize matches DOM on corpora, " ^ name) `Quick
          (test_corpora backend))
      backends
    @ List.map
        (fun (name, backend) ->
          Alcotest.test_case ("hand-written cases, " ^ name) `Quick (test_hand_cases backend))
        backends
    @ [
        prop_encoder;
        prop_framed_matches_encoder;
        Alcotest.test_case "whole-document allocation" `Quick test_whole_document_allocation;
        Alcotest.test_case "byte cap trips early" `Quick test_byte_cap_trips_early;
        Alcotest.test_case "deadline trips in serialization" `Quick
          test_deadline_trips_in_serialization;
        Alcotest.test_case "byte cap boundary" `Quick test_byte_cap_boundary;
      ] )
