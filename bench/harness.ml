(* Timing and table-printing helpers shared by every benchmark section.
   Protocol mirrors §6.1: each measurement runs the workload several
   times in a row, discards the first (cold) run and averages the
   rest. *)

let runs = ref 3
let fast () = runs := 1

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* seconds, averaged over !runs after one discarded warm-up *)
let time f =
  ignore (f ());
  let acc = ref 0.0 in
  for _ = 1 to !runs do
    let _, t = time_once f in
    acc := !acc +. t
  done;
  !acc /. float_of_int !runs

let time_with_result f =
  let r = f () in
  let acc = ref 0.0 in
  for _ = 1 to !runs do
    let _, t = time_once f in
    acc := !acc +. t
  done;
  (r, !acc /. float_of_int !runs)

(* Throughput mode: run the operation back-to-back for a wall-clock
   window and report completed operations per second (the serving view
   of performance, vs the latency-averaging [time]). *)
let throughput ?(window = 0.5) f =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. window in
  let ops = ref 0 in
  while Unix.gettimeofday () < deadline do
    ignore (f ());
    incr ops
  done;
  float_of_int !ops /. (Unix.gettimeofday () -. t0)

(* Aggregate ops/sec across [domains] concurrent workers hammering [f]
   for the same window; [f] receives the worker index. *)
let throughput_domains ?(window = 0.5) ~domains f =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. window in
  let worker i () =
    (* retire this domain's profiler label slot on exit: bench spawns
       short-lived domains, and a dead slot would keep being sampled at
       its last path forever *)
    Fun.protect ~finally:Sxsi_obs.Journal.retire_slot @@ fun () ->
    let ops = ref 0 in
    while Unix.gettimeofday () < deadline do
      ignore (f i);
      incr ops
    done;
    !ops
  in
  let handles = List.init domains (fun i -> Domain.spawn (worker i)) in
  let total = List.fold_left (fun acc h -> acc + Domain.join h) 0 handles in
  float_of_int total /. (Unix.gettimeofday () -. t0)

let pp_rate r =
  if r >= 1e6 then Printf.sprintf "%.2fM/s" (r /. 1e6)
  else if r >= 1e3 then Printf.sprintf "%.1fk/s" (r /. 1e3)
  else Printf.sprintf "%.0f/s" r

let ms t = t *. 1000.0

let pp_ms t =
  let m = ms t in
  if m >= 1000.0 then Printf.sprintf "%.2fs" (t)
  else if m >= 100.0 then Printf.sprintf "%.0fms" m
  else if m >= 1.0 then Printf.sprintf "%.1fms" m
  else Printf.sprintf "%.3fms" m

let pp_bytes b =
  let f = float_of_int b in
  if f >= 1e9 then Printf.sprintf "%.2fGB" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fMB" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fKB" (f /. 1e3)
  else Printf.sprintf "%dB" b

(* ------------------------------------------------------------------ *)
(* Machine-readable output: with --json, every section accumulates its
   printed tables plus any structured measurements and lands in
   BENCH_<section>.json next to the human-readable stdout.  The files
   carry no timestamps, so consecutive runs on one host diff cleanly;
   a [host] object records what the numbers were taken on. *)

module J = Sxsi_obs.Json

let json_enabled = ref false

type json_acc = {
  key : string;
  mutable tables : J.t list;        (* reversed *)
  mutable measurements : J.t list;  (* reversed *)
}

let json_acc : json_acc option ref = ref None

(* First line of a shell command's output, if it succeeds. *)
let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None)

(* Online cores, the OCaml runtime's recommended domain count, the
   compiler version and the git revision ("-dirty" when the working
   tree has uncommitted changes): what a reader needs before comparing
   two files. *)
let host =
  lazy
    (J.Obj
       [
         ( "cores",
           match Option.bind (command_line "nproc") int_of_string_opt with
           | Some n -> J.Int n
           | None -> J.Null );
         ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
         ("ocaml_version", J.String Sys.ocaml_version);
         ( "git_revision",
           match command_line "git describe --always --dirty --abbrev=40" with
           | Some r -> J.String r
           | None -> J.Null );
       ])

(* --profile: sample every section with the profiler and append a
   [profile] object (unattributed share, top self-time stacks) to its
   BENCH_<section>.json, so baselines track where section time goes. *)
let profile_enabled = ref false
let profile_since : Sxsi_prof.Prof.snapshot option ref = ref None

let json_begin key =
  if !json_enabled then json_acc := Some { key; tables = []; measurements = [] };
  if !profile_enabled then begin
    Sxsi_prof.Prof.ensure_started ();
    profile_since := Some (Sxsi_prof.Prof.snapshot ())
  end

let profile_json () =
  match !profile_since with
  | None -> None
  | Some since ->
    profile_since := None;
    let r = Sxsi_prof.Prof.report ~since () in
    let pct = Sxsi_prof.Prof.unattributed_pct r in
    let top =
      List.filteri (fun i _ -> i < 10) r.Sxsi_prof.Prof.r_entries
      |> List.map (fun e ->
             J.Obj
               [
                 ("stack", J.String (String.concat ";" e.Sxsi_prof.Prof.e_stack));
                 ("self_ns", J.Int e.Sxsi_prof.Prof.e_self_ns);
               ])
    in
    Some
      ( pct,
        J.Obj
          [
            ("unattributed_pct", J.Float pct);
            ("ticks", J.Int r.Sxsi_prof.Prof.r_ticks);
            ("stacks", J.List top);
          ] )

let json_table header rows =
  match !json_acc with
  | None -> ()
  | Some acc ->
    let strings l = J.List (List.map (fun s -> J.String s) l) in
    acc.tables <-
      J.Obj [ ("header", strings header); ("rows", J.List (List.map strings rows)) ]
      :: acc.tables

let measure fields =
  match !json_acc with
  | None -> ()
  | Some acc -> acc.measurements <- J.Obj fields :: acc.measurements

(* Returns the path written, if JSON output is on. *)
let json_finish ~scale () =
  let profiled = profile_json () in
  (match profiled with
  | Some (pct, _) -> Printf.printf "[prof] %.1f%% of sampled time unattributed\n" pct
  | None -> ());
  match !json_acc with
  | None -> None
  | Some acc ->
    json_acc := None;
    let path = "BENCH_" ^ acc.key ^ ".json" in
    let doc =
      J.Obj
        ([
           ("schema", J.String "sxsi-bench-v1");
           ("section", J.String acc.key);
           ("runs", J.Int !runs);
           ("scale", J.Float scale);
           ("host", Lazy.force host);
           ("tables", J.List (List.rev acc.tables));
           ("measurements", J.List (List.rev acc.measurements));
         ]
        @ match profiled with Some (_, p) -> [ ("profile", p) ] | None -> [])
    in
    let oc = open_out path in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    Some path

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let table header rows =
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    (header :: rows);
  let print_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then print_string "  ";
        Printf.printf "%-*s" widths.(i) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows;
  flush stdout;
  json_table header rows

(* Serialization sink: reused buffer, returns total bytes produced. *)
let sink = Buffer.create 65536

let serialize_bytes doc nodes =
  let total = ref 0 in
  Array.iter
    (fun x ->
      Buffer.clear sink;
      Sxsi_xml.Document.serialize_into sink doc x;
      total := !total + Buffer.length sink)
    nodes;
  !total

(* Run [argv] as a child with stdout discarded; its wall-clock seconds
   and peak resident set in bytes (ru_maxrss from wait4), so a
   build's peak is read from a fresh process rather than from a heap
   that earlier work has already grown. *)
external wait_maxrss : int -> int * int = "bench_wait_maxrss"

let child_peak argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin devnull Unix.stderr)
  in
  let status, maxrss_kb = wait_maxrss pid in
  let t = Unix.gettimeofday () -. t0 in
  if status <> 0 then
    failwith (Printf.sprintf "%s exited with %d" (String.concat " " (Array.to_list argv)) status);
  (t, maxrss_kb * 1024)
