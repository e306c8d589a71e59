"""Immutable records and the one JSON encoding of them.

A Record subclass declares its fields once, in `fields`.  That tuple is
the constructor's argument order, the key order of to_json(), and what
equality, hashing and repr compare.  `hidden` names fields that stay
off the payload (kernel rows a verifier reads back, say).  Setting an
attribute raises; replace() builds a changed copy.

jsonable() is the only place that decides the encoding: a record becomes
its to_json(), a tuple or list a list, a dict keeps its keys, and any
other value passes through for json.dumps to accept or refuse.
"""

# a report's decision on its claim; cli.exit_code turns it into an exit code
OK, FAIL, INCONCLUSIVE = "ok", "fail", "inconclusive"


class Record:
    fields = ()
    hidden = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.fields):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(self.fields, args))

    def _complete(self, args, kwargs):
        name = type(self).__name__
        if len(args) > len(self.fields):
            raise TypeError(f"{name} takes {len(self.fields)} fields, "
                            f"got {len(args)}")
        given = dict(zip(self.fields, args))
        for key in kwargs:
            if key not in self.fields or key in given:
                raise TypeError(f"{name}: unknown or repeated field {key!r}")
        values = {**given, **kwargs}
        missing = [f for f in self.fields if f not in values]
        if missing:
            raise TypeError(f"{name} is missing {', '.join(missing)}")
        return [values[f] for f in self.fields]

    def _values(self):
        return tuple(getattr(self, f) for f in self.fields)

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.fields)
        return f"{type(self).__name__}({body})"

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self.fields, self._values())),
                             **changes})

    def to_json(self):
        return {f: jsonable(getattr(self, f)) for f in self.fields
                if f not in self.hidden}


def jsonable(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value
