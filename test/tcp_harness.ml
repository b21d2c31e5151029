(* A live TCP front end for the service and evloop tests: start
   [Ev_server.serve] on a spawned domain, hand its port to the test
   body, and stop and join it afterwards whatever happens. *)

module Ev_server = Sxsi_service.Ev_server
module Shards = Sxsi_service.Shards
module Protocol = Sxsi_service.Protocol

(* [shards] defaults to the one-shard wrapping of [svc]. *)
let with_server ?idle_ms ?sndbuf ?max_conns ?shards svc body =
  let shards = match shards with Some sh -> sh | None -> Shards.of_service svc in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Ev_server.serve ?idle_ms ?sndbuf ?max_conns ~port:0
          ~on_listen:(fun p -> Atomic.set port p)
          ~stop:(fun () -> Atomic.get stop)
          shards)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "server came up" true (Atomic.get port <> 0);
      body (Atomic.get port))

let connect port = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let read_response ic =
  match
    Protocol.read_response (fun () ->
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail ("client read: " ^ e)

(* One request/response exchange on an open connection. *)
let exchange ic oc line =
  output_string oc (line ^ "\n");
  flush oc;
  read_response ic
