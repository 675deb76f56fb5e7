"""XML substrate: tokens, codec, parser, tree model, writer, compaction.

Names load their module on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "codec": ("TokenCodec",),
    "compact": (
        "CompactionConfig",
        "NameDictionary",
        "annotate_levels",
        "eliminate_end_tags",
        "restore_end_tags",
    ),
    "document": ("Document", "DocumentStats"),
    "dtd": ("DTD", "AttributeDef", "ContentModel", "Violation"),
    "model": ("Element",),
    "parser": ("parse_events",),
    "streaming": ("parse_events_incremental",),
    "tokens": (
        "EndTag",
        "KEY_MISSING",
        "KEY_NUMBER",
        "KEY_STRING",
        "MISSING_KEY",
        "RunPointer",
        "StartTag",
        "Text",
        "Token",
        "coerce_key",
        "number_key",
        "sort_key_of",
        "string_key",
    ),
    "writer": (
        "element_to_string",
        "escape_attr",
        "escape_text",
        "events_to_string",
    ),
})
