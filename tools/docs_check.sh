#!/bin/sh
# Docs consistency gate (CI "docs" job):
#   1. every relative markdown link in *.md and docs/*.md resolves to a file
#      that exists in the repo (external http(s)/mailto links are skipped);
#   2. the README knob table and PipelineConfig agree: every knob row names
#      a field of `struct PipelineConfig` in src/core/pipeline.h (a dotted
#      knob like `static_tier.enabled` by the part before its first dot),
#      and every field has a `<field>` or `<field>.*` row;
#   3. the README sweep-knob table and DurableSweepConfig agree the same way
#      against `struct DurableSweepConfig` in src/store/durable_sweep.h;
#   4. the README knob table and TelemetryConfig agree exactly: every field
#      of `struct TelemetryConfig` in src/core/pipeline.h has a
#      `telemetry.<field>` row, and every `telemetry.*` row names a real
#      field (catches docs rotting in either direction as the live
#      introspection plane grows);
#   5. docs/OPERATIONS.md stays wired to reality: every endpoint path in
#      its endpoint table appears as a string literal in the serving code,
#      and every row of its tuning table names a config field that exists
#      in the header the row points at;
#   6. docs/QUERY_API.md and the /v1 renderers agree exactly: every field
#      name in the spec's `| Field | Type | Meaning |` tables is an
#      append_key() call site in src/serve/*.cpp and vice versa (the spec
#      is normative — an undocumented field is as much a failure as a
#      documented-but-gone one);
#   7. the version in docs/CHECKPOINT_FORMAT.md's title equals
#      `kJournalVersion` in src/store/journal.h (a format change that
#      bumps the code but not the spec, or the reverse, fails);
#   8. the `StaticTriage` value list in docs/CHECKPOINT_FORMAT.md's
#      `static_triage` row equals `enum class StaticTriage` in
#      src/core/proxy_detector.h: the same names, in the same order, with
#      raw values counting from 0 (the journal stores the raw value);
#   9. the record-type table in docs/CHECKPOINT_FORMAT.md §2 equals
#      `enum class RecordType` in src/store/journal.h: every row is an
#      enumerator with the same value, and every enumerator has a row.
# Pure POSIX sh + grep/sed/awk; no network, no build required.
set -eu
cd "$(dirname "$0")/.."

fail=0

# struct_fields <struct> <header>: the data members of `struct <struct>`,
# one name per line. Members sit one per line at two-space indentation;
# the name is the last word before any initializer.
struct_fields() {
  awk -v name="$1" 'index($0, "struct " name " {") == 1 { in_struct = 1; next }
                    in_struct && /^\};/ { in_struct = 0 }
                    in_struct && /^  [^ \/]/' "$2" |
    sed 's/ = .*//; s/{.*//; s/;.*//; s/.*[ *&]//'
}

# missing_rows <knobs> <fields> <what>: fails each field that no knob row
# names, either exactly or as the `<field>.` prefix of a dotted knob.
missing_rows() {
  for field in $2; do
    if ! printf '%s\n' "$1" | grep -q -e "^$field\$" -e "^$field\."; then
      echo "docs_check: $3 field '$field' has no row in README.md" >&2
      fail=1
    fi
  done
}

# unknown_rows <knobs> <fields> <what>: fails each knob row that names no
# field, matching an undotted knob whole and a dotted knob by the part
# before its first dot (a comment naming a deleted field does not count).
unknown_rows() {
  for knob in $1; do
    head=${knob%%.*}
    if ! printf '%s\n' "$2" | grep -q "^$head\$"; then
      echo "docs_check: README documents $3 knob '$knob' but $3 has no" \
        "field '$head'" >&2
      fail=1
    fi
  done
}

# ---- 1. relative markdown links ------------------------------------------
for f in *.md docs/*.md; do
  [ -f "$f" ] || continue
  dir=$(dirname "$f")
  links=$(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//; s/#.*//') || true
  for link in $links; do
    case "$link" in
      http://* | https://* | mailto:* | '') continue ;;
    esac
    if [ ! -e "$dir/$link" ] && [ ! -e "$link" ]; then
      echo "docs_check: broken link in $f -> $link" >&2
      fail=1
    fi
  done
done

# ---- 2. README PipelineConfig knobs vs pipeline.h ------------------------
knobs=$(awk '/^\| Knob \| Default \| Meaning \|/ { in_table = 1; next }
             in_table && !/^\|/ { in_table = 0 }
             in_table' README.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p')
if [ -z "$knobs" ]; then
  echo "docs_check: could not find the PipelineConfig knob table in README.md" >&2
  fail=1
fi
pipeline_fields=$(struct_fields PipelineConfig src/core/pipeline.h)
if [ -z "$pipeline_fields" ]; then
  echo "docs_check: could not parse PipelineConfig fields from src/core/pipeline.h" >&2
  fail=1
fi
unknown_rows "$knobs" "$pipeline_fields" PipelineConfig
missing_rows "$knobs" "$pipeline_fields" PipelineConfig

# ---- 3. README DurableSweepConfig knobs vs durable_sweep.h ---------------
sweep_knobs=$(awk '/^\| Sweep knob \| Default \| Meaning \|/ { in_table = 1; next }
                   in_table && !/^\|/ { in_table = 0 }
                   in_table' README.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p')
if [ -z "$sweep_knobs" ]; then
  echo "docs_check: could not find the DurableSweepConfig knob table in README.md" >&2
  fail=1
fi
sweep_fields=$(struct_fields DurableSweepConfig src/store/durable_sweep.h)
if [ -z "$sweep_fields" ]; then
  echo "docs_check: could not parse DurableSweepConfig fields from src/store/durable_sweep.h" >&2
  fail=1
fi
unknown_rows "$sweep_knobs" "$sweep_fields" DurableSweepConfig
missing_rows "$sweep_knobs" "$sweep_fields" DurableSweepConfig

# ---- 4. TelemetryConfig fields vs README telemetry.* rows (both ways) ----
telemetry_fields=$(struct_fields TelemetryConfig src/core/pipeline.h)
if [ -z "$telemetry_fields" ]; then
  echo "docs_check: could not parse TelemetryConfig fields from src/core/pipeline.h" >&2
  fail=1
fi
for field in $telemetry_fields; do
  if ! printf '%s\n' "$knobs" | grep -q "^telemetry\.$field\$"; then
    echo "docs_check: TelemetryConfig field '$field' has no" \
      "'telemetry.$field' row in README.md's knob table" >&2
    fail=1
  fi
done
for knob in $knobs; do
  case "$knob" in
    telemetry.*) ;;
    *) continue ;;
  esac
  leaf=${knob##*.}
  if ! printf '%s\n' "$telemetry_fields" | grep -q "^$leaf\$"; then
    echo "docs_check: README documents '$knob' but TelemetryConfig has no" \
      "field '$leaf'" >&2
    fail=1
  fi
done

# ---- 5. OPERATIONS.md endpoint + tuning tables vs source ----------------
endpoints=$(awk '/^\| Endpoint \| Content type \| Meaning \|/ { in_table = 1; next }
                 in_table && !/^\|/ { in_table = 0 }
                 in_table' docs/OPERATIONS.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p')
if [ -z "$endpoints" ]; then
  echo "docs_check: could not find the endpoint table in docs/OPERATIONS.md" >&2
  fail=1
fi
for endpoint in $endpoints; do
  # Placeholder suffixes (<addr>, <hash>) are not part of the registered
  # path; the literal before them is.
  path=${endpoint%%<*}
  if ! grep -qF "\"$path\"" src/serve/*.cpp src/obs/*.cpp \
    examples/landscape_survey.cpp; then
    echo "docs_check: OPERATIONS.md documents endpoint '$endpoint' but" \
      "\"$path\" is not registered anywhere in the serving code" >&2
    fail=1
  fi
done

service_knobs=$(awk '/^\| Service knob \| Where \| Meaning \|/ { in_table = 1; next }
                     in_table && !/^\|/ { in_table = 0 }
                     in_table' docs/OPERATIONS.md |
  sed -n 's/^| `\([^`]*\)` | `\([^`]*\)`.*/\1 \2/p')
if [ -z "$service_knobs" ]; then
  echo "docs_check: could not find the tuning table in docs/OPERATIONS.md" >&2
  fail=1
fi
printf '%s\n' "$service_knobs" | while read -r knob where; do
  [ -n "$knob" ] || continue
  leaf=${knob##*.}
  if [ ! -f "$where" ]; then
    echo "docs_check: OPERATIONS.md tuning row '$knob' points at" \
      "missing file '$where'" >&2
    exit 1
  fi
  if ! grep -q -w "$leaf" "$where"; then
    echo "docs_check: OPERATIONS.md documents tuning knob '$knob' but" \
      "'$leaf' does not appear in $where" >&2
    exit 1
  fi
done || fail=1

# ---- 6. QUERY_API.md field tables vs append_key call sites (both ways) ---
api_fields=$(awk '/^\| Field \| Type \| Meaning \|/ { in_table = 1; next }
                  in_table && !/^\|/ { in_table = 0 }
                  in_table' docs/QUERY_API.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p' | sort -u)
impl_fields=$(sed -n 's/.*append_key([A-Za-z_][A-Za-z_0-9]*, "\([^"]*\)").*/\1/p' \
  src/serve/*.cpp | sort -u)
if [ -z "$api_fields" ] || [ -z "$impl_fields" ]; then
  echo "docs_check: could not extract /v1 field names (QUERY_API.md tables" \
    "or append_key call sites came up empty)" >&2
  fail=1
fi
for field in $impl_fields; do
  if ! printf '%s\n' "$api_fields" | grep -q "^$field\$"; then
    echo "docs_check: /v1 responses render field '$field' (append_key in" \
      "src/serve) but docs/QUERY_API.md does not document it" >&2
    fail=1
  fi
done
for field in $api_fields; do
  if ! printf '%s\n' "$impl_fields" | grep -q "^$field\$"; then
    echo "docs_check: docs/QUERY_API.md documents field '$field' but no" \
      "append_key call site in src/serve renders it" >&2
    fail=1
  fi
done

# ---- 7. CHECKPOINT_FORMAT.md title version vs kJournalVersion -----------
spec_version=$(sed -n '1s/^# .*(version \([0-9][0-9]*\))$/\1/p' \
  docs/CHECKPOINT_FORMAT.md)
code_version=$(sed -n \
  's/^inline constexpr std::uint16_t kJournalVersion = \([0-9][0-9]*\);$/\1/p' \
  src/store/journal.h)
if [ -z "$spec_version" ] || [ -z "$code_version" ]; then
  echo "docs_check: could not read the journal version from the title of" \
    "docs/CHECKPOINT_FORMAT.md or kJournalVersion in src/store/journal.h" >&2
  fail=1
elif [ "$spec_version" != "$code_version" ]; then
  echo "docs_check: docs/CHECKPOINT_FORMAT.md specifies journal version" \
    "$spec_version but src/store/journal.h has kJournalVersion" \
    "$code_version" >&2
  fail=1
fi

# ---- 8. CHECKPOINT_FORMAT.md StaticTriage values vs the enum ------------
# Both sides as "<raw> <name>" lines: the spec's row lists "0 kNotRun, 1 …";
# the enum's enumerators (no explicit values) are numbered in order.
spec_triage=$(sed -n 's/^| `static_triage` | u8 | `StaticTriage`: \(.*\) |$/\1/p' \
  docs/CHECKPOINT_FORMAT.md | sed 's/, /,/g' | tr ',' '\n')
code_triage=$(awk '/^enum class StaticTriage / { in_enum = 1; next }
                   in_enum && /^};/ { in_enum = 0 }
                   in_enum && /^  k/' src/core/proxy_detector.h |
  sed 's/^  \(k[A-Za-z0-9_]*\).*/\1/' | awk '{ print NR - 1, $0 }')
if [ -z "$spec_triage" ] || [ -z "$code_triage" ]; then
  echo "docs_check: could not read the StaticTriage values from the" \
    "static_triage row of docs/CHECKPOINT_FORMAT.md or from" \
    "enum class StaticTriage in src/core/proxy_detector.h" >&2
  fail=1
elif [ "$spec_triage" != "$code_triage" ]; then
  echo "docs_check: docs/CHECKPOINT_FORMAT.md lists StaticTriage values" \
    "'$(printf '%s' "$spec_triage" | tr '\n' ',')' but" \
    "src/core/proxy_detector.h has" \
    "'$(printf '%s' "$code_triage" | tr '\n' ',')'" >&2
  fail=1
fi

# ---- 9. CHECKPOINT_FORMAT.md record types vs enum class RecordType ------
# Both sides as sorted "<value> <name>" lines: the spec's §2 rows read
# "| 2 | `kContract` | …"; the enumerators read "  kContract = 2,".
spec_types=$(awk '/^## 2\. / { in_table = 1; next }
                  in_table && /^## / { in_table = 0 }
                  in_table' docs/CHECKPOINT_FORMAT.md |
  sed -n 's/^| \([0-9][0-9]*\) | `\(k[A-Za-z0-9_]*\)` |.*/\1 \2/p' | sort)
code_types=$(awk '/^enum class RecordType / { in_enum = 1; next }
                  in_enum && /^};/ { in_enum = 0 }
                  in_enum' src/store/journal.h |
  sed -n 's/^  \(k[A-Za-z0-9_]*\) = \([0-9][0-9]*\),.*/\2 \1/p' | sort)
if [ -z "$spec_types" ] || [ -z "$code_types" ]; then
  echo "docs_check: could not read the record types from the §2 table of" \
    "docs/CHECKPOINT_FORMAT.md or from enum class RecordType in" \
    "src/store/journal.h" >&2
  fail=1
elif [ "$spec_types" != "$code_types" ]; then
  echo "docs_check: docs/CHECKPOINT_FORMAT.md §2 lists record types" \
    "'$(printf '%s' "$spec_types" | tr '\n' ',')' but enum class" \
    "RecordType in src/store/journal.h has" \
    "'$(printf '%s' "$code_types" | tr '\n' ',')'" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "docs_check: all markdown links resolve;" \
    "all $(echo "$knobs" | wc -l | tr -d ' ') documented pipeline knobs and" \
    "$(echo "$sweep_knobs" | wc -l | tr -d ' ') sweep knobs exist;" \
    "all $(echo "$pipeline_fields" | wc -l | tr -d ' ') PipelineConfig," \
    "$(echo "$sweep_fields" | wc -l | tr -d ' ') DurableSweepConfig and" \
    "$(echo "$telemetry_fields" | wc -l | tr -d ' ') TelemetryConfig" \
    "fields documented;" \
    "$(echo "$endpoints" | wc -l | tr -d ' ') endpoints and" \
    "$(echo "$service_knobs" | wc -l | tr -d ' ') service knobs wired;" \
    "$(echo "$api_fields" | wc -l | tr -d ' ') /v1 fields in sync;" \
    "journal version $code_version," \
    "$(echo "$code_triage" | wc -l | tr -d ' ') StaticTriage values and" \
    "$(echo "$code_types" | wc -l | tr -d ' ') record types in spec and code"
fi
exit "$fail"
