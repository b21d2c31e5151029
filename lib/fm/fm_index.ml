open Sxsi_bits

(* ------------------------------------------------------------------ *)
(* Profiling probe: a handful of atomic counters, installed globally.  *)
(* The disabled path costs one atomic load and branch per public call  *)
(* (never per backward-search or locate step), so it can stay in the   *)
(* hot functions permanently.                                          *)
(* ------------------------------------------------------------------ *)

type probe = {
  search_calls : Sxsi_obs.Counter.t;
  search_steps : Sxsi_obs.Counter.t;
  locate_calls : Sxsi_obs.Counter.t;
  locate_steps : Sxsi_obs.Counter.t;
  locate_ns : Sxsi_obs.Counter.t;
  extract_calls : Sxsi_obs.Counter.t;
  extract_ns : Sxsi_obs.Counter.t;
}

let create_probe () =
  let c = Sxsi_obs.Counter.create in
  {
    search_calls = c ();
    search_steps = c ();
    locate_calls = c ();
    locate_steps = c ();
    locate_ns = c ();
    extract_calls = c ();
    extract_ns = c ();
  }

let active_probe : probe option Atomic.t = Atomic.make None

let set_probe p = Atomic.set active_probe p
let current_probe () = Atomic.get active_probe

(* Build-phase spans: the FM build dominates indexing time, and these
   give the sampling profiler named cost centers for its phases. *)
module J = Sxsi_obs.Journal

let n_build = J.name "fm/build"
let n_sais = J.name "fm/sais"
let n_fill = J.name "fm/bwt_fill"
let n_wavelet = J.name "fm/wavelet"

type t = {
  bwt : Wavelet.t;                (* BWT of T, '\000' for end-markers *)
  c : int array;                  (* c.(b) = symbols of T smaller than byte b *)
  n : int;
  d : int;
  sample_rate : int;
  doc_started : Intvec.t;         (* per $-row (in row order): text starting there *)
  sampled : Bitvec.t;             (* rows whose suffix position is sampled *)
  samples : Intvec.t;             (* global T positions of sampled rows *)
  starts : Sparse.t;              (* start position of each text in T *)
}

let bits_for v =
  let rec go v acc = if v = 0 then max 1 acc else go (v lsr 1) (acc + 1) in
  go v 0

(* The collection as one packed SA-IS input: the terminator of text i
   is the symbol i+1, content byte b is b+d, and the SA-IS sentinel 0
   ends it.  Returns it with the start of each text. *)
let packed_text ~who texts =
  let d = Array.length texts in
  if d = 0 then invalid_arg (who ^ ": empty collection");
  let n = Array.fold_left (fun acc s -> acc + String.length s + 1) 0 texts in
  Sais.check_length (n + 1);
  let mapped = Sais.create (n + 1) in
  let starts = Array.make d 0 in
  let p = ref 0 in
  Array.iteri
    (fun i s ->
      starts.(i) <- !p;
      for k = 0 to String.length s - 1 do
        let ch = String.unsafe_get s k in
        if ch = '\000' then invalid_arg (who ^ ": NUL byte in text");
        Sais.unsafe_set mapped (!p + k) (Char.code ch + d)
      done;
      p := !p + String.length s;
      Sais.unsafe_set mapped !p (i + 1);
      incr p)
    texts;
  (mapped, starts)

(* BWT row i is suffix [r = sa.(i+1)] (the sentinel's row 0 is
   dropped); its symbol precedes position r, cyclically. *)
let[@inline] row_suffix sa i = Sais.unsafe_get sa (i + 1)
let[@inline] preceding mapped n r = Sais.unsafe_get mapped (if r = 0 then n - 1 else r - 1)

let write_bwt mapped sa d =
  let n = Sais.length mapped - 1 in
  let bwt = Bytes.create n in
  for i = 0 to n - 1 do
    let v = preceding mapped n (row_suffix sa i) in
    Bytes.unsafe_set bwt i (if v <= d then '\000' else Char.unsafe_chr (v - d))
  done;
  bwt

let bwt_of_texts texts =
  let mapped, _ = packed_text ~who:"Fm_index.bwt_of_texts" texts in
  let d = Array.length texts in
  Bytes.unsafe_to_string (write_bwt mapped (Sais.suffix_array mapped (256 + d)) d)

(* The mapped text and its suffix array, 4 bytes per text byte each,
   are the build's two big arrays.  Two passes over them write the BWT
   bytes, then the sampled-row bits and both integer vectors straight
   into their final form, and they are garbage as soon as [scan]
   returns, before the wavelet tree is built. *)
let scan ~sample_rate texts =
  let d = Array.length texts in
  let mapped, starts = packed_text ~who:"Fm_index.build" texts in
  let n = Sais.length mapped - 1 in
  let sa = J.with_span J.Engine n_sais (fun () -> Sais.suffix_array mapped (256 + d)) in
  J.with_span J.Engine n_fill @@ fun () ->
  let bwt = write_bwt mapped sa d in
  let sampled = Bitvec.Builder.create ~hint:n () in
  (* d end-marker rows; positions 0, l, 2l, ... below n are sampled *)
  let doc_started = Intvec.make d (bits_for (max 1 (d - 1))) in
  let samples = Intvec.make (((n - 1) / sample_rate) + 1) (bits_for (max 1 (n - 1))) in
  let nd = ref 0 and ns = ref 0 in
  for i = 0 to n - 1 do
    let r = row_suffix sa i in
    if Bytes.unsafe_get bwt i = '\000' then begin
      (* terminator of text v-1: the suffix at this row starts text
         [v mod d] (text 0 when v = d). *)
      Intvec.set doc_started !nd (preceding mapped n r mod d);
      incr nd
    end;
    let s = r mod sample_rate = 0 in
    Bitvec.Builder.push sampled s;
    if s then begin
      Intvec.set samples !ns r;
      incr ns
    end
  done;
  (n, bwt, Bitvec.Builder.finish sampled, doc_started, samples, starts)

(* Text length from which [build] collects the dead [scan] arrays (8
   bytes per text byte) before the wavelet tree is built: the major GC
   would otherwise keep them through the rest of the build and
   beyond.  Below it they are under 8 MB, less than a stop-the-world
   collection is worth. *)
let collect_above = 1 lsl 20

let build ?pool ?(sample_rate = 64) texts =
  J.with_span J.Engine n_build @@ fun () ->
  let n, bwt_bytes, sampled, doc_started, samples, starts = scan ~sample_rate texts in
  if n >= collect_above then Gc.full_major ();
  let bwt =
    J.with_span J.Engine n_wavelet (fun () ->
        Wavelet.of_string ?pool (Bytes.unsafe_to_string bwt_bytes))
  in
  let c = Array.make 257 0 in
  for b = 1 to 256 do
    c.(b) <- c.(b - 1) + Wavelet.count bwt (Char.chr (b - 1))
  done;
  {
    bwt;
    c = Array.sub c 0 256;
    n;
    d = Array.length texts;
    sample_rate;
    doc_started;
    sampled;
    samples;
    starts = Sparse.of_sorted ~universe:n starts;
  }

let length t = t.n
let doc_count t = t.d
let sample_rate t = t.sample_rate

let occ t ch i = Wavelet.rank t.bwt ch i
let c_before t ch = t.c.(Char.code ch)
let bwt_byte t i = Wavelet.access t.bwt i

let lf t i =
  let ch = Wavelet.access t.bwt i in
  if ch = '\000' then invalid_arg "Fm_index.lf: end-marker row";
  t.c.(Char.code ch) + Wavelet.rank t.bwt ch i

(* The search/locate loops are the innermost unbounded work in a
   query; they charge the ambient request budget (installed by
   [Sxsi_core.Engine]).  The ambient lookup happens once per public
   call; with no budget installed each loop step pays one branch. *)
let budget_step = function
  | None -> ()
  | Some b -> Sxsi_qos.Budget.check b

let search_within t p sp0 ep0 =
  let bdg = Sxsi_qos.Budget.ambient () in
  let sp = ref sp0 and ep = ref ep0 in
  (try
     for i = String.length p - 1 downto 0 do
       budget_step bdg;
       let ch = p.[i] in
       if ch = '\000' then begin
         sp := 0;
         ep := 0;
         raise Exit
       end;
       let base = t.c.(Char.code ch) in
       let rsp, rep = Wavelet.rank2 t.bwt ch !sp !ep in
       sp := base + rsp;
       ep := base + rep;
       if !ep <= !sp then raise Exit
     done
   with Exit -> ());
  (match Atomic.get active_probe with
  | None -> ()
  | Some pr ->
    Sxsi_obs.Counter.incr pr.search_calls;
    Sxsi_obs.Counter.add pr.search_steps (String.length p));
  if !ep <= !sp then (0, 0) else (!sp, !ep)

let search t p = search_within t p 0 t.n

(* One backward search over [p]: after step [i] the range holds the rows
   prefixed by the suffix [p.[i..]], so every suffix comes out of one
   pass of [|p|] steps. *)
let search_suffixes t p f =
  let bdg = Sxsi_qos.Budget.ambient () in
  let sp = ref 0 and ep = ref t.n and steps = ref 0 in
  (try
     for i = String.length p - 1 downto 0 do
       budget_step bdg;
       incr steps;
       let ch = p.[i] in
       if ch = '\000' then raise Exit;
       let base = t.c.(Char.code ch) in
       let rsp, rep = Wavelet.rank2 t.bwt ch !sp !ep in
       sp := base + rsp;
       ep := base + rep;
       if !ep <= !sp then raise Exit;
       f i !sp !ep
     done
   with Exit -> ());
  match Atomic.get active_probe with
  | None -> ()
  | Some pr ->
    Sxsi_obs.Counter.incr pr.search_calls;
    Sxsi_obs.Counter.add pr.search_steps !steps

let bounds t p =
  let sp = ref 0 and ep = ref t.n in
  for i = String.length p - 1 downto 0 do
    let ch = p.[i] in
    if ch = '\000' then invalid_arg "Fm_index.bounds: NUL in pattern";
    let base = t.c.(Char.code ch) in
    let rsp, rep = Wavelet.rank2 t.bwt ch !sp !ep in
    sp := base + rsp;
    ep := base + rep
  done;
  (!sp, !ep)

let count t p =
  let sp, ep = search t p in
  ep - sp

(* Branching backward search: at each pattern position either follow
   the pattern character or, while the mismatch budget lasts, any other
   content byte present in the text.  Distinct spelled-out strings
   occupy disjoint row ranges, so the results never overlap. *)
let search_approx t p ~k =
  if k < 0 then invalid_arg "Fm_index.search_approx: negative budget";
  let present =
    let acc = ref [] in
    for b = 255 downto 1 do
      if Wavelet.count t.bwt (Char.chr b) > 0 then acc := Char.chr b :: !acc
    done;
    Array.of_list !acc
  in
  let results = ref [] in
  let rec go i sp ep budget =
    if ep <= sp then ()
    else if i < 0 then results := (sp, ep) :: !results
    else begin
      let target = p.[i] in
      let step ch =
        let base = t.c.(Char.code ch) in
        let rsp, rep = Wavelet.rank2 t.bwt ch sp ep in
        let sp' = base + rsp and ep' = base + rep in
        if ep' > sp' then begin
          if ch = target then go (i - 1) sp' ep' budget
          else if budget > 0 then go (i - 1) sp' ep' (budget - 1)
        end
      in
      if budget = 0 then (if target <> '\000' then step target)
      else Array.iter step present
    end
  in
  if String.length p > 0 && not (String.contains p '\000') then
    go (String.length p - 1) 0 t.n k;
  !results

let count_approx t p ~k =
  List.fold_left (fun acc (sp, ep) -> acc + (ep - sp)) 0 (search_approx t p ~k)

let dollar_doc t row =
  Intvec.get t.doc_started (Wavelet.rank t.bwt '\000' row)

let dollar_count_in t sp ep =
  let lo, hi = Wavelet.rank2 t.bwt '\000' sp ep in
  hi - lo

let dollar_index_range t sp ep = Wavelet.rank2 t.bwt '\000' sp ep

let dollar_doc_at t j = Intvec.get t.doc_started j

let iter_dollar_docs t sp ep f =
  let lo, hi = Wavelet.rank2 t.bwt '\000' sp ep in
  for j = lo to hi - 1 do
    f (Intvec.get t.doc_started j)
  done

let text_start t i = Sparse.get t.starts i

let text_length t i =
  let s = Sparse.get t.starts i in
  let e = if i + 1 < t.d then Sparse.get t.starts (i + 1) else t.n in
  e - s - 1

let pos_to_text t pos =
  if pos < 0 || pos >= t.n then invalid_arg "Fm_index.pos_to_text";
  let id = Sparse.rank t.starts (pos + 1) - 1 in
  (id, pos - Sparse.get t.starts id)

let locate t row0 =
  let probe = Atomic.get active_probe in
  let bdg = Sxsi_qos.Budget.ambient () in
  let t0 = match probe with None -> 0 | Some _ -> Sxsi_obs.Clock.now_ns () in
  let row = ref row0 and steps = ref 0 and res = ref (-1) in
  while !res < 0 do
    budget_step bdg;
    if Bitvec.get t.sampled !row then
      res := Intvec.get t.samples (Bitvec.rank1 t.sampled !row) + !steps
    else begin
      let ch = Wavelet.access t.bwt !row in
      if ch = '\000' then
        (* reached the first character of a text *)
        res := Sparse.get t.starts (dollar_doc t !row) + !steps
      else begin
        row := t.c.(Char.code ch) + Wavelet.rank t.bwt ch !row;
        incr steps
      end
    end
  done;
  (match probe with
  | None -> ()
  | Some pr ->
    Sxsi_obs.Counter.incr pr.locate_calls;
    Sxsi_obs.Counter.add pr.locate_steps !steps;
    Sxsi_obs.Counter.add pr.locate_ns (Sxsi_obs.Clock.since t0));
  !res

let extract t i =
  if i < 0 || i >= t.d then invalid_arg "Fm_index.extract";
  let probe = Atomic.get active_probe in
  let t0 = match probe with None -> 0 | Some _ -> Sxsi_obs.Clock.now_ns () in
  let buf = Buffer.create 16 in
  (* Row i starts with the terminator of text i; its BWT symbol is the
     last character of text i.  Walk LF back to the text start. *)
  let bdg = Sxsi_qos.Budget.ambient () in
  let row = ref i in
  let continue = ref true in
  while !continue do
    budget_step bdg;
    let ch = Wavelet.access t.bwt !row in
    if ch = '\000' then continue := false
    else begin
      Buffer.add_char buf ch;
      row := t.c.(Char.code ch) + Wavelet.rank t.bwt ch !row
    end
  done;
  let s = Buffer.contents buf in
  (match probe with
  | None -> ()
  | Some pr ->
    Sxsi_obs.Counter.incr pr.extract_calls;
    Sxsi_obs.Counter.add pr.extract_ns (Sxsi_obs.Clock.since t0));
  String.init (String.length s) (fun k -> s.[String.length s - 1 - k])

let space_bits t =
  Wavelet.space_bits t.bwt + (256 * 64)
  + Intvec.space_bits t.doc_started
  + Bitvec.space_bits t.sampled
  + Intvec.space_bits t.samples
  + Sparse.space_bits t.starts
