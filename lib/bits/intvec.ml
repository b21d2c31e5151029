(* Elements are packed contiguously in a bit stream over 63-bit words;
   an element can straddle two words. *)

let word_bits = 63

type t = {
  n : int;
  w : int;
  mask : int;
  data : int array;
}

let make n w =
  if w <= 0 || w > 62 then invalid_arg "Intvec.make: width";
  let bits = n * w in
  let nwords = (bits + word_bits - 1) / word_bits in
  { n; w; mask = (1 lsl w) - 1; data = Array.make (max 1 nwords) 0 }

let length t = t.n
let width t = t.w

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Intvec.get";
  let bit = i * t.w in
  let wd = bit / word_bits and off = bit mod word_bits in
  let lo = Array.unsafe_get t.data wd lsr off in
  let avail = word_bits - off in
  if avail >= t.w then lo land t.mask
  else (lo lor (Array.unsafe_get t.data (wd + 1) lsl avail)) land t.mask

(* Sequential decode: the word and offset advance by [w] bits per
   element instead of being divided out of [i * w] each time. *)
let blit_to t i dst n =
  if i < 0 || n < 0 || i + n > t.n || n > Array.length dst then invalid_arg "Intvec.blit_to";
  let w = t.w and mask = t.mask in
  let bit = i * w in
  let wd = ref (bit / word_bits) and off = ref (bit mod word_bits) in
  for k = 0 to n - 1 do
    let lo = Array.unsafe_get t.data !wd lsr !off in
    let avail = word_bits - !off in
    Array.unsafe_set dst k
      (if avail >= w then lo land mask
       else (lo lor (Array.unsafe_get t.data (!wd + 1) lsl avail)) land mask);
    off := !off + w;
    if !off >= word_bits then begin
      off := !off - word_bits;
      incr wd
    end
  done

let set t i v =
  if i < 0 || i >= t.n then invalid_arg "Intvec.set";
  if v < 0 || v > t.mask then invalid_arg "Intvec.set: value";
  let bit = i * t.w in
  let wd = bit / word_bits and off = bit mod word_bits in
  let mask63 = (1 lsl word_bits) - 1 in
  t.data.(wd) <- (t.data.(wd) land (lnot (t.mask lsl off) land mask63))
                 lor ((v lsl off) land mask63);
  let avail = word_bits - off in
  if avail < t.w then begin
    let hi_bits = t.w - avail in
    let hi_mask = (1 lsl hi_bits) - 1 in
    t.data.(wd + 1) <- (t.data.(wd + 1) land lnot hi_mask) lor (v lsr avail)
  end

let of_array ?width a =
  let w =
    match width with
    | Some w -> w
    | None ->
      let m = Array.fold_left max 0 a in
      let rec bits v acc = if v = 0 then max 1 acc else bits (v lsr 1) (acc + 1) in
      bits m 0
  in
  let t = make (Array.length a) w in
  Array.iteri (fun i v -> set t i v) a;
  t

let space_bits t = Array.length t.data * 64 + 128
