exception Parse_error of int * string

let error pos msg = raise (Parse_error (pos, msg))

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

type state = {
  src : string;
  mutable pos : int;
  text : Buffer.t;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st.pos (Printf.sprintf "expected %S" s)

let skip_space st =
  while st.pos < String.length st.src && is_space st.src.[st.pos] do
    st.pos <- st.pos + 1
  done

let read_name st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> st.pos <- st.pos + 1
  | _ -> error st.pos "expected a name");
  while
    st.pos < String.length st.src && is_name_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* Decode a reference starting right after '&'; appends to [buf]. *)
let read_reference st buf =
  let upto =
    match String.index_from_opt st.src st.pos ';' with
    | Some j when j - st.pos <= 10 -> j
    | Some _ | None -> error st.pos "unterminated entity reference"
  in
  let name = String.sub st.src st.pos (upto - st.pos) in
  st.pos <- upto + 1;
  match name with
  | "amp" -> Buffer.add_char buf '&'
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ ->
    if String.length name >= 2 && name.[0] = '#' then begin
      let code =
        try
          if name.[1] = 'x' || name.[1] = 'X' then
            int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
          else int_of_string (String.sub name 1 (String.length name - 1))
        with Failure _ -> error st.pos "bad character reference"
      in
      (* encode as UTF-8 *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else if code < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    end
    else error st.pos (Printf.sprintf "unknown entity &%s;" name)

let read_attr_value st =
  let quote =
    match peek st with
    | Some ('"' as q) | Some ('\'' as q) ->
      st.pos <- st.pos + 1;
      q
    | _ -> error st.pos "expected quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st.pos "unterminated attribute value"
    | Some c when c = quote -> st.pos <- st.pos + 1
    | Some '&' ->
      st.pos <- st.pos + 1;
      read_reference st buf;
      go ()
    | Some '<' -> error st.pos "'<' in attribute value"
    | Some c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let skip_until st marker what =
  match
    (* naive search for the marker *)
    let n = String.length st.src and m = String.length marker in
    let rec go i =
      if i + m > n then None
      else if String.sub st.src i m = marker then Some i
      else go (i + 1)
    in
    go st.pos
  with
  | Some j -> st.pos <- j + String.length marker
  | None -> error st.pos ("unterminated " ^ what)

let skip_doctype st =
  (* skip to the matching '>', honouring an internal subset [...] *)
  let depth = ref 1 in
  while !depth > 0 do
    match peek st with
    | None -> error st.pos "unterminated DOCTYPE"
    | Some '<' ->
      incr depth;
      st.pos <- st.pos + 1
    | Some '>' ->
      decr depth;
      st.pos <- st.pos + 1
    | Some _ -> st.pos <- st.pos + 1
  done

let parse ~on_open ~on_close ~on_text src =
  let st = { src; pos = 0; text = Buffer.create 256 } in
  let flush_text () =
    if Buffer.length st.text > 0 then begin
      on_text (Buffer.contents st.text);
      Buffer.clear st.text
    end
  in
  let read_attributes () =
    let rec go acc =
      skip_space st;
      match peek st with
      | Some c when is_name_start c ->
        let name = read_name st in
        skip_space st;
        expect st "=";
        skip_space st;
        let value = read_attr_value st in
        go ((name, value) :: acc)
      | Some _ | None -> List.rev acc
    in
    go []
  in
  let stack = ref [] in
  let depth () = List.length !stack in
  let rec loop () =
    if st.pos >= String.length st.src then begin
      if !stack <> [] then error st.pos "unexpected end of document";
      flush_text ()
    end
    else begin
      let c = st.src.[st.pos] in
      if c = '<' then begin
        if looking_at st "<!--" then begin
          st.pos <- st.pos + 4;
          skip_until st "-->" "comment"
        end
        else if looking_at st "<![CDATA[" then begin
          if depth () = 0 then error st.pos "CDATA outside the root element";
          let start = st.pos + 9 in
          st.pos <- start;
          skip_until st "]]>" "CDATA section";
          Buffer.add_substring st.text st.src start (st.pos - 3 - start)
        end
        else if looking_at st "<?" then begin
          st.pos <- st.pos + 2;
          skip_until st "?>" "processing instruction"
        end
        else if looking_at st "<!DOCTYPE" then begin
          st.pos <- st.pos + 9;
          skip_doctype st
        end
        else if looking_at st "</" then begin
          flush_text ();
          st.pos <- st.pos + 2;
          let name = read_name st in
          skip_space st;
          expect st ">";
          (match !stack with
          | top :: rest when top = name ->
            stack := rest;
            on_close name
          | top :: _ ->
            error st.pos (Printf.sprintf "mismatched </%s>, expected </%s>" name top)
          | [] -> error st.pos (Printf.sprintf "stray </%s>" name))
        end
        else begin
          flush_text ();
          st.pos <- st.pos + 1;
          let name = read_name st in
          let attrs = read_attributes () in
          skip_space st;
          if looking_at st "/>" then begin
            st.pos <- st.pos + 2;
            on_open name attrs;
            on_close name
          end
          else begin
            expect st ">";
            on_open name attrs;
            stack := name :: !stack
          end
        end;
        loop ()
      end
      else if c = '&' then begin
        if depth () = 0 then error st.pos "text outside the root element";
        st.pos <- st.pos + 1;
        read_reference st st.text;
        loop ()
      end
      else begin
        if depth () = 0 then begin
          if not (is_space c) then error st.pos "text outside the root element";
          st.pos <- st.pos + 1
        end
        else begin
          Buffer.add_char st.text c;
          st.pos <- st.pos + 1
        end;
        loop ()
      end
    end
  in
  loop ()

(* Bytes [add_escaped] must look at, one table per (quote, stuff)
   mode, so that the copy loop tests one table entry per byte. *)
let special_tables =
  Array.init 4 (fun mode ->
      Bytes.init 256 (fun c ->
          match Char.chr c with
          | '&' | '<' | '>' -> '\001'
          | '"' when mode land 1 = 1 -> '\001'
          | '\n' when mode land 2 = 2 -> '\001'
          | _ -> '\000'))

(* Runs without a special byte are copied with one [add_substring]
   each.  With [stuff], a '.' that starts a line of the buffer is
   doubled: after each '\n' of [s], and at the start of [s] when the
   buffer is empty or ends with '\n'. *)
let add_escaped ~stuff ~quote buf s =
  let n = String.length s in
  let dots = ref 0 in
  if stuff && n > 0 && String.unsafe_get s 0 = '.' then begin
    let l = Buffer.length buf in
    if l = 0 || Buffer.nth buf (l - 1) = '\n' then begin
      Buffer.add_char buf '.';
      incr dots
    end
  end;
  let tbl = special_tables.((if quote then 1 else 0) + if stuff then 2 else 0) in
  let start = ref 0 and i = ref 0 in
  while !i < n do
    while !i < n && Bytes.unsafe_get tbl (Char.code (String.unsafe_get s !i)) = '\000' do
      incr i
    done;
    if !i < n then begin
      Buffer.add_substring buf s !start (!i - !start);
      (match String.unsafe_get s !i with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | _ ->
        (* '\n' under [stuff] *)
        Buffer.add_char buf '\n';
        if !i + 1 < n && String.unsafe_get s (!i + 1) = '.' then begin
          Buffer.add_char buf '.';
          incr dots
        end);
      incr i;
      start := !i
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  !dots

let escape_gen quote s =
  if not (String.exists (fun c -> c = '&' || c = '<' || c = '>' || (quote && c = '"')) s)
  then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    ignore (add_escaped ~stuff:false ~quote buf s : int);
    Buffer.contents buf
  end

let escape_text s = escape_gen false s
let escape_attr s = escape_gen true s
