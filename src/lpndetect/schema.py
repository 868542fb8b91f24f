"""JSON schema for verdict reports emitted by the CLI."""

MARKING = {"type": "array", "items": {"type": "integer", "minimum": 0}}

VERDICT_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["tool", "version", "property", "outcome", "stats", "input_sha256"],
    "properties": {
        "tool": {"const": "lpndetect"},
        "version": {"type": "string"},
        "property": {"type": "string"},
        "outcome": {"enum": ["holds", "fails", "inconclusive"]},
        "message": {"type": "string"},
        "witness": {
            "oneOf": [
                {"type": "null"},
                {  # segmented firing witness
                    "type": "object",
                    "required": ["segments", "markings"],
                    "properties": {
                        "segments": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "string"}},
                        },
                        "segment_pairs": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {
                                    "type": "array",
                                    "items": {"type": "string"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                            },
                        },
                        "markings": {"type": "array", "items": MARKING},
                    },
                    "additionalProperties": False,
                },
                {  # opacity witness
                    "type": "object",
                    "required": ["word", "estimate"],
                    "properties": {
                        "word": {"type": "array", "items": {"type": "string"}},
                        "estimate": {"type": "array", "items": MARKING},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "assumptions": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["deadlock_free", "no_infinite_unobservable"],
                    "properties": {
                        "deadlock_free": {
                            "enum": ["holds", "fails", "inconclusive"]
                        },
                        "no_infinite_unobservable": {
                            "enum": ["holds", "fails", "inconclusive"]
                        },
                        "deadlock_free_message": {"type": "string"},
                        "no_infinite_unobservable_message": {"type": "string"},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "stats": {
            "type": "object",
            "required": ["states", "depth", "wall_time_s"],
            "properties": {
                "states": {"type": "integer", "minimum": 0},
                "depth": {"type": "integer", "minimum": 0},
                "wall_time_s": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "input_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
    },
    "additionalProperties": False,
}
