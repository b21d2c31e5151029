open Sxsi_bits
open Sxsi_fm

type t = {
  n : int;
  d : int;
  c : int array;               (* c.(b) = symbols smaller than byte b *)
  heads : Wavelet.t;           (* one symbol per BWT run *)
  bounds : Sparse.t;           (* first position of each run (Elias-Fano) *)
  cum : Intvec.t array;        (* per byte: cumulative lengths of its runs *)
}

let build texts =
  let d = Array.length texts in
  let bwt = Fm_index.bwt_of_texts texts in
  let n = String.length bwt in
  (* run-length encode *)
  let heads = Buffer.create 1024 in
  let starts = ref [] and nruns = ref 0 in
  let run_lengths = Array.init 256 (fun _ -> ref []) in
  let i = ref 0 in
  while !i < n do
    let ch = bwt.[!i] in
    let start = !i in
    while !i < n && bwt.[!i] = ch do
      incr i
    done;
    Buffer.add_char heads ch;
    starts := start :: !starts;
    incr nruns;
    run_lengths.(Char.code ch) := (!i - start) :: !(run_lengths.(Char.code ch))
  done;
  let starts_arr = Array.make !nruns 0 in
  List.iteri (fun k v -> starts_arr.(!nruns - 1 - k) <- v) !starts;
  let bounds = Sparse.of_sorted ~universe:n starts_arr in
  let bits_for v =
    let rec go v acc = if v = 0 then max 1 acc else go (v lsr 1) (acc + 1) in
    go v 0
  in
  let cum =
    Array.map
      (fun l ->
        let lens = Array.of_list (List.rev !l) in
        let total = Array.fold_left ( + ) 0 lens in
        let iv = Intvec.make (Array.length lens + 1) (bits_for (max 1 total)) in
        let acc = ref 0 in
        Array.iteri
          (fun k v ->
            acc := !acc + v;
            Intvec.set iv (k + 1) !acc)
          lens;
        iv)
      run_lengths
  in
  let counts = Array.make 257 0 in
  String.iter (fun ch -> counts.(Char.code ch + 1) <- counts.(Char.code ch + 1) + 1) bwt;
  let c = Array.make 256 0 in
  for b = 1 to 255 do
    c.(b) <- c.(b - 1) + counts.(b)
  done;
  {
    n;
    d;
    c;
    heads = Wavelet.of_string (Buffer.contents heads);
    bounds;
    cum;
  }

let length t = t.n
let doc_count t = t.d
let run_count t = Wavelet.length t.heads

(* number of [ch] in BWT[0, i) *)
let occ t ch i =
  if i <= 0 then 0
  else begin
    let rid = Sparse.rank t.bounds i - 1 in
    (* rid = 0-based run containing position i-1 *)
    let full = Wavelet.rank t.heads ch rid in
    let base = Intvec.get t.cum.(Char.code ch) full in
    if Wavelet.access t.heads rid = ch then
      base + (i - Sparse.get t.bounds rid)
    else base
  end

let count t p =
  let sp = ref 0 and ep = ref t.n in
  (try
     for i = String.length p - 1 downto 0 do
       let ch = p.[i] in
       if ch = '\000' then begin
         sp := 0;
         ep := 0;
         raise Exit
       end;
       let base = t.c.(Char.code ch) in
       sp := base + occ t ch !sp;
       ep := base + occ t ch !ep;
       if !ep <= !sp then raise Exit
     done
   with Exit -> ());
  max 0 (!ep - !sp)

let space_bits t =
  Wavelet.space_bits t.heads
  + Sparse.space_bits t.bounds
  + Array.fold_left (fun acc iv -> acc + Intvec.space_bits iv) 0 t.cum
  + (256 * 64)
