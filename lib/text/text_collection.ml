open Sxsi_fm

type store =
  | Plain_store
  | Lz78_store
  | No_store

type stored =
  | SPlain of string array
  | SLz78 of Lz78.t
  | SNone

type t = {
  d : int;                     (* real text count; the FM-index holds a
                                  dummy empty text when d = 0 *)
  fm : Fm_index.t;
  stored : stored;
  (* the Doc sequence as a wavelet tree, built on the first
     range-restricted query (the general form of §3.2, after [46]) *)
  doc_wavelet : Sxsi_bits.Int_wavelet.t option ref;
}

type contains_strategy = Fm_locate | Plain_scan

let build ?pool ?(sample_rate = 64) ?(store_plain = true) ?store texts =
  let d = Array.length texts in
  let store =
    match store with
    | Some s -> s
    | None -> if store_plain then Plain_store else No_store
  in
  {
    d;
    fm = Fm_index.build ?pool ~sample_rate (if d = 0 then [| "" |] else texts);
    stored =
      (match store with
      | Plain_store -> SPlain (Array.copy texts)
      | Lz78_store -> SLz78 (Lz78.of_texts texts)
      | No_store -> SNone);
    doc_wavelet = ref None;
  }

let doc_count t = t.d
let total_length t = if t.d = 0 then 0 else Fm_index.length t.fm
let has_plain t = t.stored <> SNone

let store_space_bits t =
  match t.stored with
  | SPlain a -> Array.fold_left (fun acc s -> acc + (8 * String.length s) + 128) 64 a
  | SLz78 lz -> Lz78.space_bits lz
  | SNone -> 0

let get_text t i =
  match t.stored with
  | SPlain a -> a.(i)
  | SLz78 lz -> Lz78.get lz i
  | SNone -> Fm_index.extract t.fm i

let global_count t p = if t.d = 0 then 0 else Fm_index.count t.fm p

(* Horspool substring search over one text; [occurs_in p] builds the
   shift table once and returns the test.  It can stop after the first
   match via exception. *)
exception Found

let occurs_in p =
  let m = String.length p in
  let shift = Array.make 256 m in
  for i = 0 to m - 2 do
    shift.(Char.code p.[i]) <- m - 1 - i
  done;
  fun text ->
    let n = String.length text in
    if m = 0 || m > n then false
    else begin
      let i = ref 0 in
      try
        while !i <= n - m do
          (* in bounds: !i + m <= n and !j < m *)
          let j = ref (m - 1) in
          while !j >= 0 && String.unsafe_get text (!i + !j) = String.unsafe_get p !j do
            decr j
          done;
          if !j < 0 then raise_notrace Found;
          i := !i + Array.unsafe_get shift (Char.code (String.unsafe_get text (!i + m - 1)))
        done;
        false
      with Found -> true
    end

let sorted_unique l = List.sort_uniq compare l

(* ------------------------------------------------------------------ *)
(* contains                                                             *)
(* ------------------------------------------------------------------ *)

let contains_fm t p =
  let sp, ep = Fm_index.search t.fm p in
  let ids = ref [] in
  for r = sp to ep - 1 do
    let pos = Fm_index.locate t.fm r in
    let id, _ = Fm_index.pos_to_text t.fm pos in
    ids := id :: !ids
  done;
  sorted_unique !ids

let contains_plain t p =
  let occurs = occurs_in p in
  let ids = ref [] in
  for i = t.d - 1 downto 0 do
    if occurs (get_text t i) then ids := i :: !ids
  done;
  !ids

(* Scan or locate, whichever the cost model says is cheaper.  Locating
   one occurrence walks LF back to a sampled text position: [l/2 + 1]
   steps on average, each a wavelet access plus a rank.  A scan reads
   the whole store once, and Horspool's shifts make it faster for longer
   patterns: about [(1 + 4/|p|)] units per byte.  [lf_step_units] is one
   LF step in those units.  On the Table II/III sweep at l = 4, 32 and
   64 (EXPERIMENTS.md) a step costs 340-370 ns and a unit 0.76-0.93 ns;
   390 loses the least time against the faster strategy over the whole
   sweep. *)
let lf_step_units = 390.

let contains_strategy t p =
  match t.stored with
  | SNone -> Fm_locate
  | SPlain _ | SLz78 _ ->
    let m = float_of_int (String.length p) in
    let steps =
      float_of_int (global_count t p) *. float_of_int ((Fm_index.sample_rate t.fm / 2) + 1)
    in
    let scan = float_of_int (total_length t) *. (1. +. (4. /. m)) in
    if steps *. lf_step_units > scan then Plain_scan else Fm_locate

let contains_via t strategy p =
  if String.length p = 0 then []
  else
    match (strategy, t.stored) with
    | Plain_scan, (SPlain _ | SLz78 _) -> contains_plain t p
    | Plain_scan, SNone -> invalid_arg "Text_collection.contains_via: no plain store"
    | Fm_locate, _ -> contains_fm t p

let contains t p =
  if String.length p = 0 || t.d = 0 then []
  else contains_via t (contains_strategy t p) p

let contains_count t p = List.length (contains t p)
let contains_exists t p = contains t p <> []

(* A match of [p] that straddles several texts ends in a text that
   starts with a proper suffix [p.[i..]], 0 < i < |p|.  One backward
   search yields every suffix's rows; the end-marker rows among them are
   those texts, so no occurrence is located. *)
let straddle_tails t p =
  let ids = ref [] in
  if t.d > 0 then
    Fm_index.search_suffixes t.fm p (fun i sp ep ->
        if i > 0 then Fm_index.iter_dollar_docs t.fm sp ep (fun id -> ids := id :: !ids));
  sorted_unique !ids

let straddle_tails_count t p =
  let n = ref 0 in
  if t.d > 0 then
    Fm_index.search_suffixes t.fm p (fun i sp ep ->
        if i > 0 then n := !n + Fm_index.dollar_count_in t.fm sp ep);
  !n

(* ------------------------------------------------------------------ *)
(* starts-with / equals / ends-with (§3.2)                              *)
(* ------------------------------------------------------------------ *)

(* Rows in the search range whose BWT symbol is an end-marker are texts
   whose first character starts the matched suffix, i.e. texts prefixed
   by the pattern. *)
let starts_with t p =
  if t.d = 0 then [] else
  let sp, ep = Fm_index.search t.fm p in
  let ids = ref [] in
  Fm_index.iter_dollar_docs t.fm sp ep (fun id -> ids := id :: !ids);
  sorted_unique !ids

let starts_with_count t p =
  if t.d = 0 then 0 else
  let sp, ep = Fm_index.search t.fm p in
  Fm_index.dollar_count_in t.fm sp ep

(* Backward search started from the first d rows (the end-marker rows,
   text z's terminator in column F at row z) matches texts ending with
   the pattern. *)
let ends_with_range t p =
  Fm_index.search_within t.fm p 0 (Fm_index.doc_count t.fm)

let ends_with t p =
  if t.d = 0 then [] else
  let sp, ep = ends_with_range t p in
  let ids = ref [] in
  for r = sp to ep - 1 do
    let pos = Fm_index.locate t.fm r in
    let id, _ = Fm_index.pos_to_text t.fm pos in
    ids := id :: !ids
  done;
  sorted_unique !ids

let ends_with_count t p =
  if t.d = 0 then 0 else
  let sp, ep = ends_with_range t p in
  ep - sp

(* Whole-text equality: ends-with search, then keep rows preceded by an
   end-marker (the text is exactly the pattern). *)
let equals t p =
  if t.d = 0 then [] else
  let sp, ep = ends_with_range t p in
  let ids = ref [] in
  Fm_index.iter_dollar_docs t.fm sp ep (fun id -> ids := id :: !ids);
  sorted_unique !ids

let equals_count t p =
  if t.d = 0 then 0 else
  let sp, ep = ends_with_range t p in
  Fm_index.dollar_count_in t.fm sp ep

(* ------------------------------------------------------------------ *)
(* Range-restricted variants.  starts-with / equals map a backward
   search straight to end-marker rows, so the Doc wavelet tree answers
   them in O(log d) per reported text; contains / ends-with must locate
   occurrences first and filter.                                        *)
(* ------------------------------------------------------------------ *)

let doc_wavelet t =
  match !(t.doc_wavelet) with
  | Some w -> w
  | None ->
    let seq = Array.init t.d (fun j -> Fm_index.dollar_doc_at t.fm j) in
    let w = Sxsi_bits.Int_wavelet.of_array ~sigma:(max 1 t.d) seq in
    t.doc_wavelet := Some w;
    w

let dollar_range_report t sp ep ~lo ~hi =
  if t.d = 0 then []
  else begin
    let jlo, jhi = Fm_index.dollar_index_range t.fm sp ep in
    Sxsi_bits.Int_wavelet.range_report (doc_wavelet t) ~lo:jlo ~hi:jhi ~vlo:lo ~vhi:hi
  end

let in_range lo hi ids = List.filter (fun d -> d >= lo && d < hi) ids
let contains_in t p ~lo ~hi = in_range lo hi (contains t p)

let equals_in t p ~lo ~hi =
  if t.d = 0 then []
  else begin
    let sp, ep = ends_with_range t p in
    dollar_range_report t sp ep ~lo ~hi
  end

let starts_with_in t p ~lo ~hi =
  if t.d = 0 then []
  else begin
    let sp, ep = Fm_index.search t.fm p in
    dollar_range_report t sp ep ~lo ~hi
  end

let ends_with_in t p ~lo ~hi = in_range lo hi (ends_with t p)

(* ------------------------------------------------------------------ *)
(* Lexicographic comparisons                                            *)
(* ------------------------------------------------------------------ *)

(* Text rows (BWT symbol = end-marker) sort in text order.  Those below
   the insertion point [sp] of [bounds] hold texts smaller than p.  The
   next [ends_with_count p] rows are prefixed by p and a terminator, so
   the text rows among them hold texts equal to p.  Every text row above
   those holds a text greater than p. *)
let below_lt t p = fst (Fm_index.bounds t.fm p)
let below_le t p = below_lt t p + ends_with_count t p

let text_rows t sp ep =
  if t.d = 0 then [] else begin
    let ids = ref [] in
    Fm_index.iter_dollar_docs t.fm sp ep (fun id -> ids := id :: !ids);
    sorted_unique !ids
  end

let text_row_count t sp ep = if t.d = 0 then 0 else Fm_index.dollar_count_in t.fm sp ep
let n_rows t = Fm_index.length t.fm

let less_than t p = text_rows t 0 (below_lt t p)
let less_equal t p = text_rows t 0 (below_le t p)
let greater_equal t p = text_rows t (below_lt t p) (n_rows t)
let greater_than t p = text_rows t (below_le t p) (n_rows t)
let less_than_count t p = text_row_count t 0 (below_lt t p)
let less_equal_count t p = text_row_count t 0 (below_le t p)

(* ------------------------------------------------------------------ *)

let fm_space_bits t = Fm_index.space_bits t.fm

let space_bits t = fm_space_bits t + store_space_bits t
