(* The tree-backend contract: the grammar-compressed backend must be
   observationally identical to the balanced-parentheses one — same
   navigation answers at the Tree_backend level, byte-identical query
   results at the engine level, on any document, at any pool size.  Plus
   the container-versioning regression: an index written with an unknown
   backend tag fails with the typed [Unknown_backend] error, not a
   crash. *)

open Sxsi_xml
module Tb = Sxsi_tree.Tree_backend
module Bp = Sxsi_tree.Bp
module Slp = Sxsi_grammar.Slp
module Engine = Sxsi_core.Engine
module Pool = Sxsi_par.Pool

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Slp vs Bp: raw navigation over random trees                          *)
(* ------------------------------------------------------------------ *)

(* A random tag-labeled parenthesis sequence: terminal [2*tag] opens,
   [2*tag + 1] closes. *)
let gen_tree : int array QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* nodes = int_range 1 90 in
  let* tags = int_range 1 6 in
  let* bits = list_size (return (4 * nodes)) bool in
  let bits = ref bits in
  let next_bit () =
    match !bits with
    | b :: rest ->
      bits := rest;
      b
    | [] -> false
  in
  let* tag_choices = list_size (return nodes) (int_range 0 (tags - 1)) in
  let tag_choices = ref tag_choices in
  let next_tag () =
    match !tag_choices with
    | t :: rest ->
      tag_choices := rest;
      t
    | [] -> 0
  in
  let out = Buffer.create 64 in
  ignore out;
  let syms = ref [] and stack = ref [] in
  let opened = ref 0 and used = ref 0 in
  while !used < nodes || !opened > 0 do
    if !used < nodes && (!opened = 0 || next_bit ()) then begin
      let tg = next_tag () in
      syms := (2 * tg) :: !syms;
      stack := tg :: !stack;
      incr opened;
      incr used
    end
    else begin
      (match !stack with
      | tg :: rest ->
        syms := ((2 * tg) + 1) :: !syms;
        stack := rest
      | [] -> assert false);
      decr opened
    end
  done;
  return (Array.of_list (List.rev !syms))

let max_tag syms = Array.fold_left (fun acc s -> max acc (s lsr 1)) 0 syms

let prop_slp_navigation =
  qtest ~count:150 "Slp navigation = Bp navigation" gen_tree (fun syms ->
      let n = Array.length syms in
      let tags = max_tag syms + 1 in
      let b = Bp.Builder.create () in
      Array.iter
        (fun s ->
          if s land 1 = 0 then Bp.Builder.open_node b else Bp.Builder.close_node b)
        syms;
      let bp = Bp.Builder.finish b in
      let slp = Slp.build ~min_freq:2 ~tag_count:tags ~leaf_tags:[ 0 ] syms in
      let ok = ref (Slp.length slp = n && Slp.node_count slp = n / 2) in
      for i = 0 to n - 1 do
        if Slp.is_open slp i <> Bp.is_open bp i then ok := false;
        if Slp.excess slp i <> Bp.excess bp i then ok := false;
        if Bp.is_open bp i then begin
          if Slp.close slp i <> Bp.close bp i then ok := false;
          if Slp.preorder slp i <> Bp.preorder bp i then ok := false;
          if Slp.node_of_preorder slp (Bp.preorder bp i) <> i then ok := false;
          if Slp.subtree_size slp i <> Bp.subtree_size bp i then ok := false;
          if Slp.is_leaf slp i <> Bp.is_leaf bp i then ok := false;
          if Slp.first_child slp i <> Bp.first_child bp i then ok := false;
          if Slp.next_sibling slp i <> Bp.next_sibling bp i then ok := false;
          if Slp.parent slp i <> Bp.parent bp i then ok := false;
          if Slp.depth slp i <> Bp.depth bp i then ok := false
        end
        else if Slp.open_ slp i <> Bp.open_ bp i then ok := false
      done;
      !ok)

let prop_slp_tags =
  qtest ~count:100 "Slp tag/leaf ops = brute force" gen_tree (fun syms ->
      let n = Array.length syms in
      let tags = max_tag syms + 1 in
      let leaf_tags = [ 0 ] in
      let slp = Slp.build ~min_freq:2 ~tag_count:tags ~leaf_tags syms in
      let ok = ref true in
      for tg = 0 to tags - 1 do
        let positions = ref [] in
        Array.iteri (fun i s -> if s = 2 * tg then positions := i :: !positions) syms;
        let positions = Array.of_list (List.rev !positions) in
        if Slp.count_tag slp tg <> Array.length positions then ok := false;
        Array.iteri
          (fun j p ->
            if Slp.select_tag slp tg j <> p then ok := false;
            if Slp.rank_tag slp tg p <> j then ok := false)
          positions;
        for i = 0 to n - 1 do
          let next = Array.fold_left (fun acc p -> if acc >= 0 || p < i then acc else p) (-1) positions in
          if Slp.next_tag slp tg i <> next then ok := false
        done
      done;
      (* leaves = openings of tag 0 here *)
      let leaves = ref [] in
      Array.iteri (fun i s -> if s = 0 then leaves := i :: !leaves) syms;
      let leaves = Array.of_list (List.rev !leaves) in
      if Slp.leaf_count slp <> Array.length leaves then ok := false;
      Array.iteri
        (fun d p ->
          if Slp.leaf_select slp d <> p then ok := false;
          if Slp.leaf_rank slp p <> d then ok := false)
        leaves;
      !ok)

(* ------------------------------------------------------------------ *)
(* Engine-level differential: byte-identical results                    *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    "//*";
    "//item";
    "//a";
    "//a//b";
    "//a/b";
    "/a/b/c";
    "//*[@k]";
    "//*[@id]";
    "//a[contains(., 't')]";
    "//b[. = 'hello']";
    "//item[a or b]";
    "//text()";
  ]

(* Byte-identical count/select/serialize between the two backends of
   the same document. *)
let agree doc_bp doc_g =
  List.for_all
    (fun q ->
      let cb = Engine.prepare doc_bp q and cg = Engine.prepare doc_g q in
      Engine.count cb = Engine.count cg
      && Engine.select_preorders cb = Engine.select_preorders cg
      &&
      let bb = Buffer.create 256 and bg = Buffer.create 256 in
      let nb = Engine.serialize_to bb cb and ng = Engine.serialize_to bg cg in
      nb = ng && Buffer.contents bb = Buffer.contents bg)
    queries

let prop_engine_differential =
  qtest ~count:40 "engine results agree across backends" Test_xml.gen_xml (fun src ->
      let doc_bp = Document.of_xml ~backend:`Bp src in
      let doc_g = Document.of_xml ~backend:`Grammar src in
      Document.backend doc_bp = `Bp
      && Document.backend doc_g = `Grammar
      && agree doc_bp doc_g)

let fixed_docs () =
  [
    ("fig1", Test_xml.fig1_xml);
    ("single", "<a/>");
    ("nested", "<a><a><a><a>deep</a></a></a></a>");
    ("logs", Sxsi_datagen.Logs.generate ~entries:300 ());
    ("logs-noisy", Sxsi_datagen.Logs.generate ~entries:120 ~repetition:0.0 ());
    ("xmark", Sxsi_datagen.Xmark.generate ~scale:40 ());
  ]

let test_fixed_docs () =
  List.iter
    (fun (name, xml) ->
      let doc_bp = Document.of_xml ~backend:`Bp xml in
      let doc_g = Document.of_xml ~backend:`Grammar xml in
      Alcotest.(check bool) (name ^ " agrees") true (agree doc_bp doc_g))
    (fixed_docs ())

let test_pools_agree () =
  (* each backend built under every pool size (sharing the test pools
     with test_par) against the other backend's sequential build *)
  let xml = Sxsi_datagen.Logs.generate ~entries:400 () in
  let doc_bp = Document.of_xml ~backend:`Bp xml in
  let doc_g = Document.of_xml ~backend:`Grammar xml in
  List.iter
    (fun lazy_pool ->
      let pool = Lazy.force lazy_pool in
      Alcotest.(check bool)
        (Printf.sprintf "pool size %d agrees" (Pool.size pool))
        true
        (agree (Document.of_xml ~pool ~backend:`Bp xml) doc_g
        && agree doc_bp (Document.of_xml ~pool ~backend:`Grammar xml)))
    [ Test_par.pool1; Test_par.pool2; Test_par.pool4 ]

let test_grammar_build_parallel () =
  (* building under a pool must give the same index as sequential *)
  let xml = Sxsi_datagen.Logs.generate ~entries:200 () in
  let seq = Document.of_xml ~backend:`Grammar xml in
  let pool = Lazy.force Test_par.pool4 in
  let par = Document.of_xml ~pool ~backend:`Grammar xml in
  Alcotest.(check bool) "parallel grammar build agrees" true (agree seq par)

(* ------------------------------------------------------------------ *)
(* Compression: the backend's reason to exist                           *)
(* ------------------------------------------------------------------ *)

let test_compression_ratio () =
  let xml = Sxsi_datagen.Logs.generate ~entries:5_000 () in
  let bp_bits = Tb.space_bits (Document.tree (Document.of_xml ~backend:`Bp xml)) in
  let g_bits = Tb.space_bits (Document.tree (Document.of_xml ~backend:`Grammar xml)) in
  let ratio = float_of_int bp_bits /. float_of_int g_bits in
  Alcotest.(check bool)
    (Printf.sprintf "grammar >= 5x smaller on repetitive logs (got %.1fx)" ratio)
    true (ratio >= 5.0)

(* ------------------------------------------------------------------ *)
(* Container versioning                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "sxsi_backend" ".sxsi" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_save_load_keeps_backend () =
  let xml = Sxsi_datagen.Logs.generate ~entries:100 () in
  List.iter
    (fun backend ->
      let d = Document.of_xml ~backend xml in
      with_temp_file (fun path ->
          Document.save d path;
          let d2 = Document.load path in
          Alcotest.(check string) "backend preserved" (Document.backend_name d)
            (Document.backend_name d2);
          Alcotest.(check int) "same answers"
            (Engine.count (Engine.prepare d "//entry/msg"))
            (Engine.count (Engine.prepare d2 "//entry/msg"))))
    [ `Bp; `Grammar ]

let test_unknown_backend_tag () =
  (* rewrite a valid container's backend tag to something no reader
     knows: load must fail with the typed error before unmarshalling *)
  let d = Document.of_xml ~backend:`Bp "<a><b>x</b></a>" in
  with_temp_file (fun path ->
      Document.save d path;
      let ic = open_in_bin path in
      let good =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let magic_len = String.length "SXSI-INDEX-v5\n" in
      (* header: magic, 1-byte tag length, tag *)
      let tag_len = Char.code good.[magic_len] in
      let rest = String.sub good (magic_len + 1 + tag_len)
          (String.length good - magic_len - 1 - tag_len) in
      let bogus = "zpaq" in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (String.sub good 0 magic_len);
          output_byte oc (String.length bogus);
          output_string oc bogus;
          output_string oc rest);
      (match Document.load path with
      | _ -> Alcotest.fail "unknown backend tag was accepted"
      | exception Document.Unknown_backend tag ->
        Alcotest.(check string) "typed error names the tag" bogus tag);
      (* the service must answer ERR, not die, when asked to LOAD it *)
      let svc = Sxsi_service.Service.create () in
      match
        Sxsi_service.Service.handle_line svc (Printf.sprintf "LOAD z %s" path)
      with
      | Sxsi_service.Protocol.Err msg ->
        Alcotest.(check bool) "ERR names the tag" true
          (let needle = "\"zpaq\"" in
           let rec find i =
             i + String.length needle <= String.length msg
             && (String.sub msg i (String.length needle) = needle || find (i + 1))
           in
           find 0)
      | r ->
        Alcotest.fail
          ("LOAD of unknown-backend container: "
          ^ Sxsi_service.Protocol.print_response r))

(* Older containers are refused by their magic, never unmarshalled into
   the current layout: a v2 header, and a real container re-stamped v4
   (the layout before the text collection lost its scan cutoff field). *)
let test_old_version_rejected () =
  let current = Document.of_xml "<a><b>x</b></a>" in
  let v4 path =
    Document.save current path;
    let ic = open_in_bin path in
    let good =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    "SXSI-INDEX-v4\n" ^ String.sub good 14 (String.length good - 14)
  in
  List.iter
    (fun contents ->
      with_temp_file (fun path ->
          let bytes = contents path in
          let oc = open_out_bin path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes);
          match Document.load path with
          | _ -> Alcotest.fail "old container version was accepted"
          | exception Failure msg ->
            Alcotest.(check bool) "mentions version" true
              (let needle = "unsupported index version (re-index with this build)" in
               let rec find i =
                 i + String.length needle <= String.length msg
                 && (String.sub msg i (String.length needle) = needle || find (i + 1))
               in
               find 0)))
    [ (fun _ -> "SXSI-INDEX-v2\n" ^ String.make 64 '\x00'); v4 ]

let suite =
  ( "backend",
    [
      prop_slp_navigation;
      prop_slp_tags;
      prop_engine_differential;
      Alcotest.test_case "fixed corpora agree" `Quick test_fixed_docs;
      Alcotest.test_case "pool sizes 1/2/4 agree" `Quick test_pools_agree;
      Alcotest.test_case "parallel grammar build" `Quick test_grammar_build_parallel;
      Alcotest.test_case "grammar compresses logs >= 5x" `Quick test_compression_ratio;
      Alcotest.test_case "save/load keeps backend" `Quick test_save_load_keeps_backend;
      Alcotest.test_case "unknown backend tag is typed" `Quick test_unknown_backend_tag;
      Alcotest.test_case "old container version rejected" `Quick
        test_old_version_rejected;
    ] )
