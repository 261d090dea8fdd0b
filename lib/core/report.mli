(** Plain-text rendering of experiment output.

    The benchmark harness prints each figure/table of the paper as an
    aligned text table; these helpers keep the formatting in one place. *)

val table : title:string -> headers:string list -> string list list -> unit
(** Print a titled, column-aligned table to stdout.  When the
    [MINOS_CSV_DIR] environment variable names a directory, the same data
    is also written there as a CSV file (named after the slugified title)
    so figures can be re-plotted externally. *)

val section : string -> unit
(** Print a section banner. *)

val note : ('a, unit, string, unit) format4 -> 'a
(** Print an indented free-form note line. *)

val f1 : float -> string
(** Format with 1 decimal, with [nan] rendered as ["-"]. *)

val f2 : float -> string

val f0 : float -> string

val pct : float -> string
(** Format a 0..1 fraction as a percentage. *)

val verdict : (bool * string) list -> (unit, string) result
(** [Error msg] for the first [(false, msg)] claim, else [Ok ()]: the
    shape of every [check] over a run's headline claims. *)

val ledger_claim : string -> (unit, string) result -> bool * string
(** The {!verdict} claim that a loss-accounting check
    ({!Obs.Ledger.check}, {!Kvcluster.Metrics.check}) passed; its message
    is the label followed by the check's error. *)
