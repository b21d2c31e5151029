(* SA-IS and FM-index tests, each checked against naive string scans. *)

open Sxsi_fm

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* SA-IS                                                                *)
(* ------------------------------------------------------------------ *)

let naive_suffix_array s =
  let n = Array.length s in
  let idx = Array.init n (fun i -> i) in
  let cmp a b =
    let rec go a b =
      if a >= n then -1
      else if b >= n then 1
      else if s.(a) <> s.(b) then compare s.(a) s.(b)
      else go (a + 1) (b + 1)
    in
    if a = b then 0 else go a b
  in
  Array.sort cmp idx;
  idx

(* SA-IS runs on packed arrays; the tests state inputs and expected
   outputs as int arrays. *)
let sais s sigma =
  let packed = Sais.create (Array.length s) in
  Array.iteri (Sais.unsafe_set packed) s;
  let sa = Sais.suffix_array packed sigma in
  Array.init (Sais.length sa) (Sais.get sa)

let sentinel_string_gen =
  QCheck2.Gen.(
    list_size (int_range 0 300) (int_range 1 5)
    |> map (fun l -> Array.of_list (l @ [ 0 ])))

let test_sais_known () =
  (* "banana" + sentinel: b=2 a=1 n=3 *)
  let s = [| 2; 1; 3; 1; 3; 1; 0 |] in
  let sa = sais s 4 in
  Alcotest.(check (array int)) "banana" [| 6; 5; 3; 1; 0; 4; 2 |] sa

let test_sais_single () =
  Alcotest.(check (array int)) "sentinel only" [| 0 |] (sais [| 0 |] 1);
  Alcotest.(check (array int)) "empty" [||] (sais [||] 1)

let test_sais_rejects () =
  Alcotest.check_raises "no sentinel" (Invalid_argument "Sais.suffix_array: missing sentinel")
    (fun () -> ignore (sais [| 1; 2 |] 3));
  Alcotest.check_raises "interior zero"
    (Invalid_argument "Sais.suffix_array: symbol out of range") (fun () ->
      ignore (sais [| 1; 0; 2; 0 |] 3))

(* The 2^31 guard is a length check made before any allocation, so it
   is tested on the length alone. *)
let test_sais_length_guard () =
  Alcotest.(check int) "max_length" ((1 lsl 31) - 1) Sais.max_length;
  Sais.check_length Sais.max_length;
  Alcotest.check_raises "2^31 entries"
    (Invalid_argument "Sais.suffix_array: input of 2^31 or more entries") (fun () ->
      Sais.check_length (1 lsl 31))

let prop_sais =
  qtest ~count:300 "SA-IS matches naive sort" sentinel_string_gen (fun s ->
      sais s 6 = naive_suffix_array s)

let prop_sais_large_alphabet =
  qtest ~count:100 "SA-IS matches naive sort (alphabet 100)"
    QCheck2.Gen.(
      list_size (int_range 0 200) (int_range 1 99)
      |> map (fun l -> Array.of_list (l @ [ 0 ])))
    (fun s -> sais s 100 = naive_suffix_array s)

(* The FM-index's own input shape: text i over bytes 1..255, content
   byte b mapped to b+d, the terminator of text i to i+1, then the
   sentinel: an alphabet of 256 + d symbols. *)
let fm_symbols texts =
  let d = Array.length texts in
  Array.concat
    (Array.to_list (Array.mapi (fun i t -> Array.append (Array.map (( + ) d) t) [| i + 1 |]) texts)
    @ [ [| 0 |] ])

(* Up to 3000 terminators and 10^4 symbols; equal cut points make
   empty texts. *)
let prop_sais_terminators =
  qtest ~count:40 "SA-IS matches naive sort (alphabet 256 + d)"
    QCheck2.Gen.(
      int_range 1 3000 >>= fun d ->
      int_range 0 (10_000 - d) >>= fun len ->
      array_size (return len) (int_range 1 255) >>= fun bytes ->
      array_size (return (d - 1)) (int_range 0 len) >|= fun cuts ->
      Array.sort compare cuts;
      let bounds = Array.concat [ [| 0 |]; cuts; [| len |] ] in
      (d, fm_symbols (Array.init d (fun i -> Array.sub bytes bounds.(i) (bounds.(i + 1) - bounds.(i))))))
    (fun (d, s) -> sais s (256 + d) = naive_suffix_array s)

(* SA-IS recursion depth, recomputed naively: the reduced string ranks
   each LMS substring (its symbols and types up to the next LMS
   position) among the distinct ones, and the algorithm recurses while
   two of them are equal. *)
let rec sais_levels s =
  let n = Array.length s in
  let t = Array.make n true in
  for i = n - 2 downto 0 do
    t.(i) <- s.(i) < s.(i + 1) || (s.(i) = s.(i + 1) && t.(i + 1))
  done;
  let lms i = i > 0 && t.(i) && not t.(i - 1) in
  let sub i =
    let rec go j acc =
      let acc = (s.(j), t.(j)) :: acc in
      if (j > i && lms j) || j = n - 1 then List.rev acc else go (j + 1) acc
    in
    go i []
  in
  let subs = List.map sub (List.filter lms (List.init n Fun.id)) in
  let distinct = Array.of_list (List.sort_uniq compare subs) in
  if Array.length distinct = List.length subs then 1
  else begin
    let rank x =
      let rec find k = if distinct.(k) = x then k else find (k + 1) in
      find 0
    in
    1 + sais_levels (Array.of_list (List.map rank subs))
  end

(* Fibonacci words (a -> ab, b -> a) reduce to Fibonacci-like words at
   every level, so they recurse about log n levels deep. *)
let fibonacci n =
  let step w =
    String.concat "" (List.map (function 'a' -> "ab" | _ -> "a") (List.of_seq (String.to_seq w)))
  in
  let rec grow w = if String.length w >= n then String.sub w 0 n else grow (step w) in
  let w = grow "a" in
  Array.init (n + 1) (fun i -> if i = n then 0 else if w.[i] = 'a' then 1 else 2)

let test_sais_deep () =
  List.iter
    (fun n ->
      let s = fibonacci n in
      Alcotest.(check bool) (Printf.sprintf "fib %d recurses >= 3 levels" n) true
        (sais_levels s >= 3);
      Alcotest.(check (array int)) (Printf.sprintf "fib %d" n) (naive_suffix_array s) (sais s 3))
    [ 50; 233; 1000; 2000 ];
  List.iter
    (fun (name, s) -> Alcotest.(check (array int)) name (naive_suffix_array s) (sais s 4))
    [
      ("a^2000", Array.append (Array.make 2000 1) [| 0 |]);
      ("(ab)^1000", Array.append (Array.init 2000 (fun i -> 1 + (i land 1))) [| 0 |]);
      ("(aab)^600", Array.append (Array.init 1800 (fun i -> if i mod 3 = 2 then 2 else 1)) [| 0 |]);
    ]

(* Run-heavy strings: a short random word repeated, each symbol
   stretched into a run, up to 2500 symbols.  Periods make LMS
   substrings repeat, which is what sends SA-IS into its recursion. *)
let prop_sais_runs =
  qtest ~count:60 "SA-IS matches naive sort (runs and periods)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 5) (pair (int_range 1 3) (int_range 1 4)))
        (int_range 1 400) (int_range 0 2)
      >|= fun (word, reps, tail) ->
      let unit = List.concat_map (fun (c, len) -> List.init len (fun _ -> c)) word in
      let body = List.concat (List.init reps (fun _ -> unit)) in
      let body = List.filteri (fun i _ -> i < 2500) body in
      Array.of_list (body @ List.init tail (fun _ -> 1) @ [ 0 ]))
    (fun s -> sais s 4 = naive_suffix_array s)

(* ------------------------------------------------------------------ *)
(* FM-index                                                             *)
(* ------------------------------------------------------------------ *)

let texts_gen =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (string_size ~gen:(map Char.chr (int_range 97 101)) (int_range 0 30))
    |> map Array.of_list)

let naive_count texts p =
  if String.length p = 0 then 0
  else
    Array.fold_left
      (fun acc t ->
        let m = String.length p and n = String.length t in
        let c = ref 0 in
        for i = 0 to n - m do
          if String.sub t i m = p then incr c
        done;
        acc + !c)
      0 texts

let test_fm_basic () =
  let texts = [| "pen"; "Soon discontinued"; "blue"; "40"; "rubber"; "30" |] in
  let fm = Fm_index.build ~sample_rate:3 texts in
  Alcotest.(check int) "doc_count" 6 (Fm_index.doc_count fm);
  Alcotest.(check int) "length" (Array.fold_left (fun a s -> a + String.length s + 1) 0 texts)
    (Fm_index.length fm);
  Alcotest.(check int) "count 'n'" 4 (Fm_index.count fm "n");
  Alcotest.(check int) "count 'ue'" 2 (Fm_index.count fm "ue");
  Alcotest.(check int) "count 'pen'" 1 (Fm_index.count fm "pen");
  Alcotest.(check int) "count absent" 0 (Fm_index.count fm "zzz");
  for i = 0 to 5 do
    Alcotest.(check string) "extract" texts.(i) (Fm_index.extract fm i)
  done

let test_fm_discontinued () =
  (* The paper's running FM example (Fig 2). *)
  let fm = Fm_index.build ~sample_rate:3 [| "discontinued" |] in
  Alcotest.(check int) "count n" 2 (Fm_index.count fm "n");
  Alcotest.(check int) "count dis" 1 (Fm_index.count fm "dis");
  let sp, ep = Fm_index.search fm "n" in
  Alcotest.(check int) "two rows" 2 (ep - sp);
  let positions = List.init (ep - sp) (fun k -> Fm_index.locate fm (sp + k)) in
  Alcotest.(check (list int)) "occurrence positions" [ 5; 8 ]
    (List.sort compare positions);
  Alcotest.(check string) "extract" "discontinued" (Fm_index.extract fm 0)

let test_fm_text_metadata () =
  let fm = Fm_index.build [| "ab"; ""; "xyz" |] in
  Alcotest.(check int) "start 0" 0 (Fm_index.text_start fm 0);
  Alcotest.(check int) "start 1" 3 (Fm_index.text_start fm 1);
  Alcotest.(check int) "start 2" 4 (Fm_index.text_start fm 2);
  Alcotest.(check int) "len 0" 2 (Fm_index.text_length fm 0);
  Alcotest.(check int) "len 1" 0 (Fm_index.text_length fm 1);
  Alcotest.(check int) "len 2" 3 (Fm_index.text_length fm 2);
  Alcotest.(check string) "extract empty" "" (Fm_index.extract fm 1);
  Alcotest.(check (pair int int)) "pos_to_text" (2, 1) (Fm_index.pos_to_text fm 5)

let test_fm_rejects_nul () =
  Alcotest.check_raises "NUL byte" (Invalid_argument "Fm_index.build: NUL byte in text")
    (fun () -> ignore (Fm_index.build [| "a\000b" |]))

let prop_fm_count =
  qtest "count matches naive scan" texts_gen (fun texts ->
      let fm = Fm_index.build ~sample_rate:4 texts in
      List.for_all
        (fun p -> Fm_index.count fm p = naive_count texts p)
        [ "a"; "b"; "ab"; "ba"; "aa"; "abc"; "cab"; "e"; "ee"; "abcde" ])

let prop_fm_extract =
  qtest "extract reproduces every text" texts_gen (fun texts ->
      let fm = Fm_index.build ~sample_rate:5 texts in
      let ok = ref true in
      Array.iteri (fun i s -> if Fm_index.extract fm i <> s then ok := false) texts;
      !ok)

let prop_fm_locate =
  qtest "locate finds all occurrence positions" texts_gen (fun texts ->
      let fm = Fm_index.build ~sample_rate:3 texts in
      (* concatenation with terminators, as positions are global *)
      let concat =
        String.concat "" (Array.to_list (Array.map (fun s -> s ^ "\000") texts))
      in
      List.for_all
        (fun p ->
          let sp, ep = Fm_index.search fm p in
          let got =
            List.init (ep - sp) (fun k -> Fm_index.locate fm (sp + k))
            |> List.sort compare
          in
          let expected = ref [] in
          let m = String.length p in
          for i = String.length concat - m downto 0 do
            if String.sub concat i m = p then expected := i :: !expected
          done;
          got = !expected)
        [ "a"; "ab"; "abc"; "ca"; "dd" ])

let prop_fm_pos_to_text =
  qtest "pos_to_text inverts text_start" texts_gen (fun texts ->
      let fm = Fm_index.build texts in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          let st = Fm_index.text_start fm i in
          String.iteri
            (fun off _ ->
              if Fm_index.pos_to_text fm (st + off) <> (i, off) then ok := false)
            s)
        texts;
      !ok)

(* ------------------------------------------------------------------ *)
(* Approximate search                                                   *)
(* ------------------------------------------------------------------ *)

let naive_count_approx texts p k =
  let m = String.length p in
  Array.fold_left
    (fun acc t ->
      let n = String.length t in
      let c = ref 0 in
      for i = 0 to n - m do
        let mism = ref 0 in
        for j = 0 to m - 1 do
          if t.[i + j] <> p.[j] then incr mism
        done;
        if !mism <= k then incr c
      done;
      acc + !c)
    0 texts

let test_approx_basic () =
  let fm = Fm_index.build [| "banana"; "panama" |] in
  Alcotest.(check int) "exact" 1 (Fm_index.count_approx fm "banana" ~k:0);
  Alcotest.(check int) "panana k=1 hits both" 2 (Fm_index.count_approx fm "panana" ~k:1);
  Alcotest.(check int) "exact ana" 3 (Fm_index.count_approx fm "ana" ~k:0);
  Alcotest.(check bool) "k grows results" true
    (Fm_index.count_approx fm "ana" ~k:1 > Fm_index.count_approx fm "ana" ~k:0);
  Alcotest.check_raises "negative k"
    (Invalid_argument "Fm_index.search_approx: negative budget") (fun () ->
      ignore (Fm_index.count_approx fm "x" ~k:(-1)))

let prop_approx =
  qtest ~count:80 "count_approx matches naive Hamming scan" texts_gen (fun texts ->
      let fm = Fm_index.build texts in
      List.for_all
        (fun (p, k) -> Fm_index.count_approx fm p ~k = naive_count_approx texts p k)
        [ ("ab", 0); ("ab", 1); ("abc", 1); ("aa", 1); ("e", 1); ("abcd", 2) ])

let suite =
  ( "fm",
    [
      Alcotest.test_case "sais banana" `Quick test_sais_known;
      Alcotest.test_case "sais degenerate" `Quick test_sais_single;
      Alcotest.test_case "sais rejects bad input" `Quick test_sais_rejects;
      Alcotest.test_case "sais length guard" `Quick test_sais_length_guard;
      Alcotest.test_case "sais deep recursion" `Quick test_sais_deep;
      Alcotest.test_case "fm basic" `Quick test_fm_basic;
      Alcotest.test_case "fm paper example" `Quick test_fm_discontinued;
      Alcotest.test_case "fm text metadata" `Quick test_fm_text_metadata;
      Alcotest.test_case "fm rejects NUL" `Quick test_fm_rejects_nul;
      prop_sais;
      prop_sais_large_alphabet;
      prop_sais_terminators;
      prop_sais_runs;
      prop_fm_count;
      prop_fm_extract;
      prop_fm_locate;
      prop_fm_pos_to_text;
      Alcotest.test_case "approx search basic" `Quick test_approx_basic;
      prop_approx;
    ] )
