open Sxsi_fm

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let tokenize s =
  let toks = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_word_char s.[!i] then begin
      let start = !i in
      while !i < n && is_word_char s.[!i] do
        incr i
      done;
      toks := String.sub s start (!i - start) :: !toks
    end
    else incr i
  done;
  List.rev !toks

(* token sequence symbols: 0 = SA-IS sentinel, 1 = text separator,
   word ids from 2 *)
type t = {
  d : int;
  seq : int array;         (* token stream with separators, no sentinel *)
  sa : Bytes.t;            (* packed suffix array of seq + sentinel *)
  starts : int array;      (* offset of each text's first token in seq *)
  vocab : (string, int) Hashtbl.t;
  words : int;             (* distinct words *)
  tokens : int;            (* total tokens *)
}

let build texts =
  let vocab = Hashtbl.create 1024 in
  let next = ref 2 in
  let intern w =
    match Hashtbl.find_opt vocab w with
    | Some id -> id
    | None ->
      let id = !next in
      incr next;
      Hashtbl.add vocab w id;
      id
  in
  let d = Array.length texts in
  let starts = Array.make d 0 in
  let seq = ref [] and len = ref 0 and tokens = ref 0 in
  Array.iteri
    (fun i s ->
      starts.(i) <- !len;
      List.iter
        (fun w ->
          seq := intern w :: !seq;
          incr len;
          incr tokens)
        (tokenize s);
      seq := 1 :: !seq;
      incr len)
    texts;
  let seq_arr = Array.make !len 0 in
  List.iteri (fun i v -> seq_arr.(!len - 1 - i) <- v) !seq;
  let with_sentinel = Sais.create (!len + 1) in
  Array.iteri (Sais.unsafe_set with_sentinel) seq_arr;
  let sa = Sais.suffix_array with_sentinel !next in
  {
    d;
    seq = seq_arr;
    sa;
    starts;
    vocab;
    words = !next - 2;
    tokens = !tokens;
  }

let doc_count t = t.d
let distinct_words t = t.words
let token_count t = t.tokens

(* compare the suffix at seq position [p] with the query ids:
   -1 / 0 / 1 as the suffix is below / prefixed-by / above the query *)
let compare_suffix t p (q : int array) =
  let n = Array.length t.seq and m = Array.length q in
  let rec go k =
    if k = m then 0
    else if p + k >= n then -1
    else begin
      let c = compare t.seq.(p + k) q.(k) in
      if c <> 0 then c else go (k + 1)
    end
  in
  go 0

let sa_range t q =
  (* t.sa indexes seq+sentinel; position [length seq] is the sentinel *)
  let n = Sais.length t.sa in
  (* lower bound: first suffix >= q *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_suffix t (Sais.get t.sa mid) q < 0 then lo := mid + 1 else hi := mid
  done;
  let first = !lo in
  let lo = ref first and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_suffix t (Sais.get t.sa mid) q <= 0 then lo := mid + 1 else hi := mid
  done;
  (first, !lo)

let ids_of_phrase t phrase =
  let toks = tokenize phrase in
  if toks = [] then None
  else begin
    let rec map acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | w :: tl -> begin
        match Hashtbl.find_opt t.vocab w with
        | Some id -> map (id :: acc) tl
        | None -> None
      end
    in
    map [] toks
  end

let text_of_pos t pos =
  (* last start <= pos *)
  let lo = ref 0 and hi = ref (t.d - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.starts.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

let phrase_occurrences t phrase =
  match ids_of_phrase t phrase with
  | None -> 0
  | Some q ->
    let sp, ep = sa_range t q in
    ep - sp

let contains_phrase t phrase =
  match ids_of_phrase t phrase with
  | None -> []
  | Some q ->
    let sp, ep = sa_range t q in
    let ids = ref [] in
    for k = sp to ep - 1 do
      ids := text_of_pos t (Sais.get t.sa k) :: !ids
    done;
    List.sort_uniq compare !ids

let contains_phrase_count t phrase = List.length (contains_phrase t phrase)

let matches_text _t phrase s =
  let p = tokenize phrase and w = tokenize s in
  match p with
  | [] -> false
  | _ ->
    let pa = Array.of_list p and wa = Array.of_list w in
    let m = Array.length pa and n = Array.length wa in
    let rec at i k = k = m || (wa.(i + k) = pa.(k) && at i (k + 1)) in
    let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
    go 0

let space_bits t =
  (64 * (Array.length t.seq + Array.length t.starts))
  + (32 * Sais.length t.sa)
  + (t.words * 128)
