module J = Sxsi_obs.Journal

let n_write = J.name "service/write"

(* Request lines are read through a bounded reader: a protocol line is
   small (a verb, a name, a query), so anything longer than
   [default_max_line] is abuse or a framing bug.  The oversized line is
   drained to its newline — the session stays usable — and answered
   with ERR TOOLONG. *)
let default_max_line = 64 * 1024

type line = Line of string | Too_long | Eof

let read_request_line ic =
  let buf = Buffer.create 128 in
  let rec fill () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= default_max_line then begin
        (* drain the rest of the oversized line; EOF here still counts
           as end-of-line so the TOOLONG answer is sent *)
        (try
           while input_char ic <> '\n' do
             ()
           done
         with End_of_file -> ());
        Too_long
      end
      else begin
        Buffer.add_char buf c;
        fill ()
      end
  in
  fill ()

(* strip the '\r' of CRLF clients, like [input_line] followers expect *)
let chomp_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let session ic oc svc =
  (* session-level deadline override, set by the DEADLINE verb; [None]
     defers to the service's [default_deadline_ms] *)
  let deadline_ms = ref None in
  let rec loop () =
    match read_request_line ic with
    | Eof -> ()
    | Too_long ->
      let resp =
        Service.reject svc
          (Protocol.err "TOOLONG"
             (Printf.sprintf "request line longer than %d bytes" default_max_line))
      in
      output_string oc (Protocol.print_response resp);
      flush oc;
      loop ()
    | Line line ->
      let line = chomp_cr line in
      (match Protocol.parse_request line with
      | Ok (Protocol.Deadline ms) -> deadline_ms := Some ms
      | _ -> ());
      let resp = Service.handle_line ?deadline_ms:!deadline_ms svc line in
      J.with_span J.Service n_write (fun () ->
          output_string oc (Protocol.print_response resp);
          flush oc);
      let quit = match Protocol.parse_request line with Ok Protocol.Quit -> true | _ -> false in
      if not quit then loop ()
  in
  loop ()
