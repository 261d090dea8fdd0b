(** The one JSON writer: every run record, bench profile and Chrome trace
    in the repository is printed through this module.

    Output is deterministic: floats print with three decimals, object
    members keep their construction order, and the layout depends only
    on the value's shape.  Layout rule: an object or list whose members
    are all scalars prints inline ([{"a": 1, "b": 2}]) unless it is the
    top-level value; everything else prints one member per line with a
    two-space indent.  The top level therefore always has one member per
    line, which line-oriented tools (the CI's [awk] over bench profiles)
    rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float : float -> string
(** A JSON number with three decimals ([%.3f]); [null] for NaN or
    ±infinity, which JSON cannot represent. *)

val string : string -> string
(** A quoted JSON string literal.  Double quotes and backslashes are
    backslash-escaped, newline and tab use their short escapes and every
    other control character is written as a [u00XX] escape, so the
    escape is lossless. *)

val to_string : t -> string
(** The value under the layout rule above, followed by a newline. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] to [path]. *)
