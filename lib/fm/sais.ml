(* SA-IS (Nong, Zhang, Chan 2009).  Suffixes are classified S/L; LMS
   suffixes are sorted by induced sorting, renamed, and the problem
   recurses on the reduced string when LMS substrings are not yet
   pairwise distinct.

   Everything works on packed arrays: 32-bit entries in [Bytes], read
   and written through the unchecked primitives below, so an access is
   one load or store with no bounds check and no boxing.  The suffix
   types are one bit each.  As in the SA-IS paper, the reduced string
   and its suffix array live inside [sa]'s free half, so a recursion
   level allocates only its type bits and one bucket array. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_length = (1 lsl 31) - 1

let[@inline] unsafe_get b i = Int32.to_int (get32u b (i lsl 2))
let[@inline] unsafe_set b i v = set32u b (i lsl 2) (Int32.of_int v)

let length b = Bytes.length b lsr 2
let create n = Bytes.make (4 * n) '\000'

let get b i =
  if i < 0 || i >= length b then invalid_arg "Sais.get";
  unsafe_get b i

let check_length n =
  if n > max_length then invalid_arg "Sais.suffix_array: input of 2^31 or more entries"

(* type bits: set = S-type, clear = L-type *)
let[@inline] is_s t i = Char.code (Bytes.unsafe_get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_s t i =
  let k = i lsr 3 in
  Bytes.unsafe_set t k (Char.unsafe_chr (Char.code (Bytes.unsafe_get t k) lor (1 lsl (i land 7))))

let[@inline] is_lms t i = i > 0 && is_s t i && not (is_s t (i - 1))

(* The text is [s.(so) .. s.(so + n - 1)] and the suffix array
   [sa.(ao) .. sa.(ao + n - 1)]: a recursion level reads both out of
   its parent's [sa].  [bkt] gets each symbol's bucket start, or its
   end when [ends]; counting reads the text in place. *)
let buckets s so n bkt k ~ends =
  Bytes.fill bkt 0 (4 * k) '\000';
  for i = so to so + n - 1 do
    let c = unsafe_get s i in
    unsafe_set bkt c (unsafe_get bkt c + 1)
  done;
  let sum = ref 0 in
  for c = 0 to k - 1 do
    let cnt = unsafe_get bkt c in
    sum := !sum + cnt;
    unsafe_set bkt c (if ends then !sum else !sum - cnt)
  done

(* L-type suffixes: left to right, from bucket starts; then S-type:
   right to left, from bucket ends.  Empty slots hold -1. *)
let induce t s so sa ao n bkt k =
  buckets s so n bkt k ~ends:false;
  for i = ao to ao + n - 1 do
    let j = unsafe_get sa i - 1 in
    if j >= 0 && not (is_s t j) then begin
      let c = unsafe_get s (so + j) in
      let p = unsafe_get bkt c in
      unsafe_set sa (ao + p) j;
      unsafe_set bkt c (p + 1)
    end
  done;
  buckets s so n bkt k ~ends:true;
  for i = ao + n - 1 downto ao do
    let j = unsafe_get sa i - 1 in
    if j >= 0 && is_s t j then begin
      let c = unsafe_get s (so + j) in
      let p = unsafe_get bkt c - 1 in
      unsafe_set bkt c p;
      unsafe_set sa (ao + p) j
    end
  done

(* Do the LMS substrings at [a] and [b] differ, given that they agree
   before offset [d]?  Symbols and types are compared up to the next
   LMS position; the unique sentinel ends every comparison inside the
   text. *)
let rec differ t s so a b d =
  if unsafe_get s (so + a + d) <> unsafe_get s (so + b + d) || is_s t (a + d) <> is_s t (b + d)
  then true
  else if d > 0 && (is_lms t (a + d) || is_lms t (b + d)) then false
  else differ t s so a b (d + 1)

(* every entry of sa[lo..hi) to -1: all four bytes 0xff *)
let fill sa lo hi = Bytes.fill sa (4 * lo) (4 * (hi - lo)) '\255'

(* [n >= 2]; the symbols lie in [\[0, k)] and the last one is a unique
   0. *)
let rec sais s so sa ao n k =
  let t = Bytes.make ((n + 7) / 8) '\000' in
  set_s t (n - 1);
  for i = n - 3 downto 0 do
    let c = unsafe_get s (so + i) and c' = unsafe_get s (so + i + 1) in
    if c < c' || (c = c' && is_s t (i + 1)) then set_s t i
  done;
  (* Stage 1: sort LMS substrings by one induced sorting pass. *)
  let bkt = create k in
  buckets s so n bkt k ~ends:true;
  fill sa ao (ao + n);
  for i = 1 to n - 1 do
    if is_lms t i then begin
      let c = unsafe_get s (so + i) in
      let p = unsafe_get bkt c - 1 in
      unsafe_set bkt c p;
      unsafe_set sa (ao + p) i
    end
  done;
  induce t s so sa ao n bkt k;
  (* Compact the now-sorted LMS substrings into sa[0..n1). *)
  let n1 = ref 0 in
  for i = ao to ao + n - 1 do
    let j = unsafe_get sa i in
    if j > 0 && is_lms t j then begin
      unsafe_set sa (ao + !n1) j;
      incr n1
    end
  done;
  let n1 = !n1 in
  (* Name them into sa[n1 + pos/2] (2 n1 <= n, and no two LMS
     positions are adjacent). *)
  fill sa (ao + n1) (ao + n);
  let names = ref 0 and prev = ref (-1) in
  for i = 0 to n1 - 1 do
    let pos = unsafe_get sa (ao + i) in
    if !prev < 0 || differ t s so pos !prev 0 then begin
      incr names;
      prev := pos
    end;
    unsafe_set sa (ao + n1 + (pos / 2)) (!names - 1)
  done;
  let names = !names in
  (* Gather the reduced string (names in text order) into sa[n-n1..n). *)
  let j = ref (ao + n - 1) in
  for i = ao + n - 1 downto ao + n1 do
    let v = unsafe_get sa i in
    if v >= 0 then begin
      unsafe_set sa !j v;
      decr j
    end
  done;
  (* Stage 2: the suffix array of the reduced string into sa[0..n1).
     The bucket array is dropped across the recursion. *)
  let s1 = ao + n - n1 in
  if names < n1 then sais sa s1 sa ao n1 names
  else
    for i = 0 to n1 - 1 do
      unsafe_set sa (ao + unsafe_get sa (s1 + i)) i
    done;
  (* Stage 3: map reduced ranks to LMS positions (overwriting the
     reduced string), place them at their bucket ends, induce. *)
  let bkt = create k in
  buckets s so n bkt k ~ends:true;
  let j = ref s1 in
  for i = 1 to n - 1 do
    if is_lms t i then begin
      unsafe_set sa !j i;
      incr j
    end
  done;
  for i = ao to ao + n1 - 1 do
    unsafe_set sa i (unsafe_get sa (s1 + unsafe_get sa i))
  done;
  fill sa (ao + n1) (ao + n);
  for i = n1 - 1 downto 0 do
    let j = unsafe_get sa (ao + i) in
    unsafe_set sa (ao + i) (-1);
    let c = unsafe_get s (so + j) in
    let p = unsafe_get bkt c - 1 in
    unsafe_set bkt c p;
    unsafe_set sa (ao + p) j
  done;
  induce t s so sa ao n bkt k

let suffix_array s sigma =
  let n = length s in
  check_length n;
  if n = 0 then create 0
  else begin
    if unsafe_get s (n - 1) <> 0 then invalid_arg "Sais.suffix_array: missing sentinel";
    for i = 0 to n - 2 do
      let c = unsafe_get s i in
      if c <= 0 || c >= sigma then invalid_arg "Sais.suffix_array: symbol out of range"
    done;
    let sa = create n in
    if n > 1 then sais s 0 sa 0 n sigma;
    sa
  end
