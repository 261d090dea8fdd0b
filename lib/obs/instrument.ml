(* Bundle of the three collectors one instrumented run carries. *)

type t = {
  recorder : Recorder.t;
  timeline : Timeline.t option;
  decisions : Decision_log.t;
}

(* The timeline's sampling period and sample count. *)
let timeline_interval_us = 500.0

let timeline_capacity = 8192

let create ?server ?spans ?sample_rate ?(timeline = true) ~cores ~seed () =
  {
    recorder = Recorder.create ?server ?capacity:spans ?sample_rate ~seed ();
    timeline =
      (if timeline then
         Some
           (Timeline.create ~cores ~interval_us:timeline_interval_us
              ~capacity:timeline_capacity)
       else None);
    decisions = Decision_log.create ();
  }
