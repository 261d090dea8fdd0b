(** The textual plan format shared by {!Plan} and [Shardmgr.Plan]: one
    [keyword key=value ...] event per line, ['#'] comments, an optional
    [plan NAME] header. *)

type fields = (string * string) list

val all : int
(** The index [*] reads as: every core / queue / server ({!Plan.all}). *)

val parse :
  name:string ->
  keys:(string -> string list option) ->
  event:(int -> string -> fields -> ('a, string) result) ->
  string ->
  (string * 'a list, string) result
(** [parse ~name ~keys ~event src] returns the plan name (the last
    header, else [name]) and the events in order.  Each event line is
    split into its keyword and fields, refusing a key given twice or one
    that [keys keyword] does not list ([None] leaves an unknown keyword
    to [event]), then handed to [event line keyword fields].  Errors
    name the line. *)

val fail : int -> string -> ('a, string) result
(** ["line N: msg"]. *)

val float : int -> string -> fields -> default:float option -> (float, string) result
(** The field as a float ([end]/[inf] read as [infinity]); [default]
    when absent, an error when absent without one. *)

val index : int -> string -> fields -> default:int option -> (int, string) result
(** A non-negative index, or [*] for {!all}. *)

val int : int -> string -> fields -> (int, string) result
(** A required integer. *)

(** {1 Rendering} *)

val float_to_string : float -> string
(** The shortest of [string_of_float]'s 12 digits and an exact 17 that
    {!float} reads back as the same value. *)

val render : name:string -> event:('a -> string * fields) -> 'a list -> string
(** The inverse of {!parse}: a [plan NAME] header, then one
    [keyword key=value ...] line per event, in order. *)
