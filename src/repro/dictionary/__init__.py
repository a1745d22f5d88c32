"""Dictionary encoding substrate (paper §5.1 dense numbering)."""

from .encoding import (
    Dictionary,
    DictionaryError,
    EncodedTriple,
    PROPERTY_BASE,
    encode_columns,
    encode_dataset,
    scan_property_terms,
)

__all__ = [
    "Dictionary",
    "DictionaryError",
    "EncodedTriple",
    "PROPERTY_BASE",
    "encode_columns",
    "encode_dataset",
    "scan_property_terms",
]
