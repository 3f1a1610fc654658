"""The shared constructor of the package's plain records, those whose
constructor only stores its arguments.  A leaf module: it imports nothing,
so `polyalg`, which imports nothing from the package, can use it too."""

__all__ = ["Record"]


class Record:
    """Base of a record whose ``__slots__`` name its fields in constructor
    order; ``Record(*values)`` stores one value per field, positionally."""

    __slots__ = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} values "
                f"({', '.join(fields)}), got {len(values)}"
            )
        for name, value in zip(fields, values):
            setattr(self, name, value)
