(* Text collection operators vs naive string predicates. *)

open Sxsi_text

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let texts_gen =
  QCheck2.Gen.(
    list_size (int_range 1 15)
      (string_size ~gen:(map Char.chr (int_range 97 100)) (int_range 0 12))
    |> map Array.of_list)

let patterns = [ "a"; "b"; "ab"; "ba"; "aab"; "abc"; "c"; "dd"; "abcd"; "" ]

let naive_ids texts pred =
  Array.to_list (Array.mapi (fun i s -> (i, s)) texts)
  |> List.filter_map (fun (i, s) -> if pred s then Some i else None)

let has_sub s p =
  let n = String.length s and m = String.length p in
  if m = 0 then false
  else begin
    let found = ref false in
    for i = 0 to n - m do
      if String.sub s i m = p then found := true
    done;
    !found
  end

let has_prefix s p =
  String.length p <= String.length s && String.sub s 0 (String.length p) = p

let has_suffix s p =
  let n = String.length s and m = String.length p in
  m <= n && String.sub s (n - m) m = p

let sample = [| "pen"; "Soon discontinued"; "blue"; "40"; "rubber"; "30"; "" |]

let build_sample () = Text_collection.build ~sample_rate:4 sample

let test_basic_counts () =
  let tc = build_sample () in
  Alcotest.(check int) "doc_count" 7 (Text_collection.doc_count tc);
  Alcotest.(check int) "global_count ue" 2 (Text_collection.global_count tc "ue");
  Alcotest.(check int) "global_count o" 3 (Text_collection.global_count tc "o");
  Alcotest.(check (list int)) "contains ue" [ 1; 2 ] (Text_collection.contains tc "ue");
  Alcotest.(check (list int)) "contains o" [ 1 ] (Text_collection.contains tc "o");
  Alcotest.(check (list int)) "contains 0" [ 3; 5 ] (Text_collection.contains tc "0")

let test_predicates () =
  let tc = build_sample () in
  Alcotest.(check (list int)) "equals pen" [ 0 ] (Text_collection.equals tc "pen");
  Alcotest.(check (list int)) "equals absent" [] (Text_collection.equals tc "pens");
  Alcotest.(check (list int)) "starts_with b" [ 2 ] (Text_collection.starts_with tc "b");
  Alcotest.(check (list int)) "starts_with S" [ 1 ] (Text_collection.starts_with tc "S");
  Alcotest.(check (list int)) "ends_with 0" [ 3; 5 ] (Text_collection.ends_with tc "0");
  Alcotest.(check (list int)) "ends_with e" [ 2 ] (Text_collection.ends_with tc "e");
  Alcotest.(check int) "ends_with_count er" 1 (Text_collection.ends_with_count tc "er")

let test_get_text_plain_and_fm () =
  let plain = Text_collection.build ~store_plain:true sample in
  let nofm = Text_collection.build ~store_plain:false sample in
  Array.iteri
    (fun i s ->
      Alcotest.(check string) "plain" s (Text_collection.get_text plain i);
      Alcotest.(check string) "fm" s (Text_collection.get_text nofm i))
    sample

let test_lexicographic () =
  let tc = Text_collection.build [| "apple"; "banana"; "apricot"; "cherry"; "app" |] in
  Alcotest.(check (list int)) "lt banana" [ 0; 2; 4 ]
    (Text_collection.less_than tc "banana");
  Alcotest.(check (list int)) "lt apple" [ 4 ] (Text_collection.less_than tc "apple");
  Alcotest.(check (list int)) "le apple" [ 0; 4 ] (Text_collection.less_equal tc "apple");
  Alcotest.(check (list int)) "gt banana" [ 3 ] (Text_collection.greater_than tc "banana");
  Alcotest.(check (list int)) "ge banana" [ 1; 3 ]
    (Text_collection.greater_equal tc "banana");
  Alcotest.(check int) "lt_count zzz" 5 (Text_collection.less_than_count tc "zzz");
  Alcotest.(check int) "lt_count a" 0 (Text_collection.less_than_count tc "a")

(* The scan-or-locate rule prices locating every occurrence (about half
   the sample rate in LF steps each) against one scan of the store. *)
let test_strategy_cutoff () =
  let texts = Array.make 50 "xyxyxy" in
  let tc = Text_collection.build texts in
  Alcotest.(check bool) "picks plain scan" true
    (Text_collection.contains_strategy tc "xy" = Text_collection.Plain_scan);
  Alcotest.(check bool) "rare pattern keeps FM" true
    (Text_collection.contains_strategy tc "yy" = Text_collection.Fm_locate);
  Alcotest.(check bool) "no store keeps FM" true
    (Text_collection.contains_strategy (Text_collection.build ~store_plain:false texts) "xy"
    = Text_collection.Fm_locate);
  Alcotest.(check (list int)) "strategies agree"
    (Text_collection.contains_via tc Text_collection.Fm_locate "xy")
    (Text_collection.contains_via tc Text_collection.Plain_scan "xy");
  (* 100 occurrences in ~100 kB: sparse sampling makes locating them
     dearer than one scan, dense sampling does not *)
  let texts =
    Array.init 1000 (fun i -> if i mod 10 = 0 then "xy" ^ String.make 98 'z' else String.make 100 'z')
  in
  let strategy l = Text_collection.contains_strategy (Text_collection.build ~sample_rate:l texts) "xy" in
  Alcotest.(check bool) "l = 64 scans" true (strategy 64 = Text_collection.Plain_scan);
  Alcotest.(check bool) "l = 4 locates" true (strategy 4 = Text_collection.Fm_locate)

let prop_contains =
  qtest "contains matches naive" texts_gen (fun texts ->
      let tc = Text_collection.build ~sample_rate:3 texts in
      List.for_all
        (fun p -> Text_collection.contains tc p = naive_ids texts (fun s -> has_sub s p))
        patterns)

let prop_equals =
  qtest "equals matches naive" texts_gen (fun texts ->
      let tc = Text_collection.build texts in
      List.for_all
        (fun p ->
          p = ""
          || Text_collection.equals tc p = naive_ids texts (fun s -> s = p))
        patterns)

let prop_starts_with =
  qtest "starts_with matches naive" texts_gen (fun texts ->
      let tc = Text_collection.build texts in
      List.for_all
        (fun p ->
          p = ""
          || Text_collection.starts_with tc p = naive_ids texts (fun s -> has_prefix s p))
        patterns)

let prop_ends_with =
  qtest "ends_with matches naive" texts_gen (fun texts ->
      let tc = Text_collection.build ~sample_rate:2 texts in
      List.for_all
        (fun p ->
          p = ""
          || Text_collection.ends_with tc p = naive_ids texts (fun s -> has_suffix s p))
        patterns)

let prop_less_than =
  qtest "less_than matches naive" texts_gen (fun texts ->
      let tc = Text_collection.build texts in
      List.for_all
        (fun p ->
          p = ""
          || Text_collection.less_than tc p = naive_ids texts (fun s -> s < p))
        patterns)

let prop_lex_partition =
  qtest "lt/eq/gt partition all texts" texts_gen (fun texts ->
      let tc = Text_collection.build texts in
      List.for_all
        (fun p ->
          p = ""
          ||
          let lt = Text_collection.less_than_count tc p in
          let eq = Text_collection.equals_count tc p in
          let gt = List.length (Text_collection.greater_than tc p) in
          lt + eq + gt = Array.length texts)
        patterns)

let lex_ops =
  [
    ("lt", Text_collection.less_than, fun c -> c < 0);
    ("le", Text_collection.less_equal, fun c -> c <= 0);
    ("gt", Text_collection.greater_than, fun c -> c > 0);
    ("ge", Text_collection.greater_equal, fun c -> c >= 0);
  ]

let prop_lex_ops =
  qtest "lexicographic operators match String.compare"
    QCheck2.Gen.(
      pair texts_gen
        (list_size (int_range 1 6)
           (string_size ~gen:(map Char.chr (int_range 97 100)) (int_range 0 5))))
    (fun (texts, pats) ->
      let tc = Text_collection.build texts in
      List.for_all
        (fun p ->
          List.for_all
            (fun (_, op, keep) ->
              op tc p = naive_ids texts (fun s -> keep (String.compare s p)))
            lex_ops
          && Text_collection.less_than_count tc p
             = List.length (naive_ids texts (fun s -> s < p))
          && Text_collection.less_equal_count tc p
             = List.length (naive_ids texts (fun s -> s <= p)))
        pats)

(* Every operator reads one range of text rows, so a large collection
   answers as fast as a small one. *)
let test_lex_large () =
  let n = 60_000 in
  let texts = Array.init n (fun i -> Printf.sprintf "%c%05d" (Char.chr (65 + (i * 7 mod 26))) i) in
  let tc = Text_collection.build texts in
  List.iter
    (fun p ->
      List.iter
        (fun (name, op, keep) ->
          Alcotest.(check (list int)) (name ^ " " ^ p)
            (naive_ids texts (fun s -> keep (String.compare s p)))
            (op tc p))
        lex_ops)
    [ "M"; "A00000"; "Z"; "K12345"; "" ]

(* ------------------------------------------------------------------ *)
(* LZ78 store                                                           *)
(* ------------------------------------------------------------------ *)

let test_lz78_roundtrip () =
  let texts = [| "abababab"; ""; "abcabcabc"; "xyz"; "abababab" |] in
  let lz = Lz78.of_texts texts in
  Alcotest.(check int) "doc_count" 5 (Lz78.doc_count lz);
  Array.iteri
    (fun i s -> Alcotest.(check string) "decode" s (Lz78.get lz i))
    texts

let test_lz78_compresses () =
  let s = String.concat "" (List.init 200 (fun _ -> "abcabcab")) in
  let lz = Lz78.of_texts [| s |] in
  Alcotest.(check bool) "fewer phrases than chars" true
    (Lz78.phrase_count lz < String.length s / 4)

let prop_lz78 =
  qtest "LZ78 round-trips random collections" texts_gen (fun texts ->
      let lz = Lz78.of_texts texts in
      let ok = ref true in
      Array.iteri (fun i s -> if Lz78.get lz i <> s then ok := false) texts;
      !ok)

let test_range_restricted () =
  let tc = build_sample () in
  Alcotest.(check (list int)) "contains_in full" [ 1; 2 ]
    (Text_collection.contains_in tc "ue" ~lo:0 ~hi:7);
  Alcotest.(check (list int)) "contains_in narrow" [ 2 ]
    (Text_collection.contains_in tc "ue" ~lo:2 ~hi:4);
  Alcotest.(check (list int)) "equals_in" []
    (Text_collection.equals_in tc "pen" ~lo:1 ~hi:7);
  Alcotest.(check (list int)) "starts_with_in" [ 1 ]
    (Text_collection.starts_with_in tc "S" ~lo:0 ~hi:2);
  Alcotest.(check (list int)) "ends_with_in" [ 5 ]
    (Text_collection.ends_with_in tc "0" ~lo:4 ~hi:7)

let prop_range_restricted =
  qtest ~count:80 "range-restricted ops match filtered full ops" texts_gen (fun texts ->
      let tc = Text_collection.build texts in
      let d = Array.length texts in
      let ranges = [ (0, d); (0, d / 2); (d / 2, d); (1, max 1 (d - 1)) ] in
      List.for_all
        (fun p ->
          p = ""
          || List.for_all
               (fun (lo, hi) ->
                 let f sel = List.filter (fun i -> i >= lo && i < hi) (sel tc p) in
                 Text_collection.starts_with_in tc p ~lo ~hi
                 = f Text_collection.starts_with
                 && Text_collection.equals_in tc p ~lo ~hi = f Text_collection.equals
                 && Text_collection.contains_in tc p ~lo ~hi
                    = f Text_collection.contains
                 && Text_collection.ends_with_in tc p ~lo ~hi
                    = f Text_collection.ends_with)
               ranges)
        patterns)

let test_store_modes () =
  List.iter
    (fun store ->
      let tc = Text_collection.build ~store sample in
      Array.iteri
        (fun i s -> Alcotest.(check string) "get_text" s (Text_collection.get_text tc i))
        sample;
      Alcotest.(check (list int)) "contains" [ 1; 2 ] (Text_collection.contains tc "ue"))
    [ Text_collection.Plain_store; Text_collection.Lz78_store; Text_collection.No_store ];
  (* plain-scan strategy also works over the LZ78 store *)
  let tc = Text_collection.build ~store:Text_collection.Lz78_store sample in
  Alcotest.(check (list int)) "lz78 plain scan" [ 1; 2 ]
    (Text_collection.contains_via tc Text_collection.Plain_scan "ue")

let suite =
  ( "text",
    [
      Alcotest.test_case "basic counts" `Quick test_basic_counts;
      Alcotest.test_case "predicates" `Quick test_predicates;
      Alcotest.test_case "get_text plain and fm" `Quick test_get_text_plain_and_fm;
      Alcotest.test_case "lexicographic" `Quick test_lexicographic;
      Alcotest.test_case "strategy cutoff" `Quick test_strategy_cutoff;
      prop_contains;
      prop_equals;
      prop_starts_with;
      prop_ends_with;
      prop_less_than;
      prop_lex_partition;
      prop_lex_ops;
      Alcotest.test_case "lexicographic on 60k texts" `Quick test_lex_large;
      Alcotest.test_case "lz78 round-trip" `Quick test_lz78_roundtrip;
      Alcotest.test_case "lz78 compresses" `Quick test_lz78_compresses;
      Alcotest.test_case "store modes" `Quick test_store_modes;
      Alcotest.test_case "range-restricted operators" `Quick test_range_restricted;
      prop_range_restricted;
      prop_lz78;
    ] )
