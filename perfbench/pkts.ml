(* Packet rate through [P4.Switch.process_many]. *)

open Meter

type t = {
  batches : (int * P4.Packet.t) list array;  (* 64 batches of 64 jobs *)
  mutable k : int;
  mutable outs : int;
  mutable ins : int;
}

let create (jobs : (int * P4.Packet.t) array) : t =
  let n = Array.length jobs in
  { batches = Array.init 64 (fun k -> List.init 64 (fun j -> jobs.(((k * 64) + j) mod n)));
    k = 0; outs = 0; ins = 0 }

(* One chunk of batches lasting at least 20 ms: its frames per second. *)
let chunk t sw : float =
  let t0 = now () in
  let pkts = ref 0 in
  span "p4.process_many" (fun () ->
      while !pkts = 0 || ns_since t0 < 20e6 do
        List.iter
          (fun l -> t.outs <- t.outs + List.length l)
          (P4.Switch.process_many sw t.batches.(t.k mod 64));
        t.k <- t.k + 1;
        pkts := !pkts + 64
      done);
  t.ins <- t.ins + !pkts;
  float_of_int !pkts *. 1e9 /. ns_since t0

let out_per_in t = per (float_of_int t.outs) t.ins

(* A slice of chunks on [sw], whose median is the reported rate, and
   its outputs per input.  The jobs are made at the first chunk. *)
let slice name sw (jobs : unit -> (int * P4.Packet.t) array) ~budget =
  let t = lazy (create (jobs ())) in
  ( Meter.slice name ~rate:true ~budget ~min:20 ~warmup:1 (fun _ -> Some (chunk (Lazy.force t) sw)),
    fun () -> out_per_in (Lazy.force t) )
