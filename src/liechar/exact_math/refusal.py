"""Refusals of an input: `Refusal`, a ValueError that carries its subject,
`over_budget`, the one writer of a budget's or a bound's refusal, and
`int_text`, its way of writing an int of any size."""


class Refusal(ValueError):
    """A rejected input. Its subject names the input it refuses ("p",
    "precision", "rows", "frobenius", ...): the CLI reads the flag to blame
    off the subject, so the message is free to say anything."""

    def __init__(self, subject, message):
        super().__init__(message)
        self.subject = subject


def over_budget(subject, what, value, name, limit):
    """The refusal of an input whose value passes the budget or bound `name`
    = `limit`, in the one budget wording "{what} {value} exceeds the budget
    {name} = {limit}" ("{what} exceeds ..." when value is None). A value of
    10^64 or more is written by its digit count, "<D digits>": str()
    refuses an int past 4300 digits, and the refusal must name its budget
    whatever the input. A `what` with a "{budget}" field is the whole text
    instead, with "{value}", "{budget}" (for "{name} = {limit}") and
    "{limit}" fields: a refusal worded before this one keeps its text."""
    if value is not None:
        value = int_text(value)
    if "{budget}" not in what:
        what += " exceeds the budget {budget}" if value is None else " {value} exceeds the budget {budget}"
    return Refusal(subject, what.format(value=value, budget=f"{name} = {limit}", limit=limit))


def int_text(value):
    """str(value), but a value of 10^64 or more in absolute value is written
    by its digit count, "<D digits>" (after a minus sign when negative):
    str() refuses an int past 4300 digits, and a refusal must be written
    whatever the input."""
    size = abs(value)
    if size < 10**64:
        return str(value)
    # (bit length - 1) log10 2 rounded down is the digit count less 1 or 2,
    # for any value below 2^(10^11)
    d = (size.bit_length() - 1) * 30102999566 // 10**11 + 1
    return f"{'-' * (value < 0)}<{d + (size >= 10**d)} digits>"
