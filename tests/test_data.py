"""Schema validation, file ingestion, user grouping, and fold plans."""

import copy
import pickle
import re

import numpy as np
import pytest

from gplvmf import (
    ContextSchema,
    ContextVariable,
    DataError,
    RatingTable,
    RealStandardization,
    group_by_user,
    load_table,
    make_folds,
    raw_context_rows,
    save_table,
)
from gplvmf import data
from gplvmf.data import CATEGORICAL, context_columns, context_rows, fit_standardization, out_of_range, parse_field
from conftest import build_table, codec_schema, codec_table


def two_context_schema(users=5, items=10):
    return ContextSchema(
        user_count=users,
        item_count=items,
        contexts=(
            ContextVariable("mood", "categorical", 2),
            ContextVariable("price", "real"),
        ),
    )


def write_rows(path, rows, header="user,item,mood,price,rating"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestSchema:
    def test_duplicate_context_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ContextSchema(2, 2, (ContextVariable("a", "real"), ContextVariable("a", "real")))

    def test_categorical_needs_cardinality(self):
        with pytest.raises(ValueError, match="cardinality"):
            ContextVariable("a", "categorical")

    def test_real_takes_no_cardinality(self):
        with pytest.raises(ValueError, match="no cardinality"):
            ContextVariable("a", "real", cardinality=3)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ContextSchema(2.5, 3), "user_count must be an integer, got 2.5"),
            (lambda: ContextSchema(2, True), "item_count must be an integer, got True"),
            (lambda: ContextSchema(0, 3), "user_count must be >= 1, got 0"),
            (lambda: ContextSchema("2", 3), "user_count must be an integer, got '2'"),
            (lambda: ContextVariable("a", CATEGORICAL, 2.0), "context 'a': cardinality must be an integer, got 2.0"),
            (lambda: ContextVariable("a", CATEGORICAL, True), "context 'a': cardinality must be an integer, got True"),
            (lambda: ContextVariable("a", CATEGORICAL, 0), "context 'a': cardinality must be >= 1, got 0"),
        ],
        ids=["fractional_users", "bool_items", "no_users", "string_users", "float_cardinality",
             "bool_cardinality", "zero_cardinality"],
    )
    def test_counts_are_checked_by_name(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_numpy_integer_counts_stay_allowed(self):
        schema = ContextSchema(np.int64(2), np.int32(3), (ContextVariable("a", "categorical", np.int64(4)),))
        assert (schema.user_count, schema.item_count, schema.contexts[0].cardinality) == (2, 3, 4)


def table_columns(n=4):
    """Valid columns of an n-row table over :func:`two_context_schema`."""
    return dict(
        schema=two_context_schema(), users=np.arange(n) % 5, items=np.arange(n) % 10,
        cat_values=(np.arange(n) % 2).reshape(n, 1), real_raw=np.linspace(0.0, 1.0, n).reshape(n, 1),
        ratings=np.full(n, 3.0), standardization=RealStandardization(np.zeros(1), np.ones(1)),
    )


def replaced(column, row, value):
    out = np.array(table_columns()[column])
    out[row] = value
    return out


class TestRatingTableChecks:
    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("users", replaced("users", 2, -1), "row 2: user index -1 out of range [0, 5)"),
            ("users", replaced("users", 1, 5), "row 1: user index 5 out of range [0, 5)"),
            ("items", replaced("items", 3, 10), "row 3: item index 10 out of range [0, 10)"),
            ("cat_values", replaced("cat_values", 1, 5), "row 1: context 'mood' code 5 out of range [0, 2)"),
            ("ratings", replaced("ratings", 1, np.nan), "row 1: rating nan is not finite"),
            ("real_raw", replaced("real_raw", 2, -np.inf), "row 2: context 'price' value -inf is not finite"),
            ("items", np.arange(4.0), "column items holds float64 values, not integer codes"),
            ("users", np.zeros(4, dtype=bool), "column users holds bool values, not integer codes"),
            ("ratings", np.full(3, 3.0), "column ratings has shape (3,), expected (4,)"),
            ("cat_values", np.zeros((4, 2), dtype=np.int64), "column cat_values has shape (4, 2), expected (4, 1)"),
            ("real_raw", np.zeros(4), "column real_raw has shape (4,), expected (4, 1)"),
        ],
        ids=["negative_user", "user_count", "item_count", "category", "nan_rating", "inf_real", "float_items",
             "bool_users", "short_ratings", "wide_codes", "flat_reals"],
    )
    def test_direct_construction_names_the_column_and_row(self, column, value, message):
        columns = table_columns()
        RatingTable(**columns)
        columns[column] = value
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            RatingTable(**columns)

    def test_empty_table_stays_legal(self):
        table = RatingTable(**table_columns(0))
        assert len(table) == 0 and table.real_values.shape == (0, 1)

    def test_subset_of_a_changed_table_is_rejected(self):
        columns = table_columns()
        table = RatingTable(**columns)
        with pytest.raises(ValueError, match="read-only"):
            table.items[1] = 10
        assert columns["items"].flags.writeable
        columns["items"][1] = 10  # the table holds its own copy of the caller's array
        assert np.array_equal(table.items, table_columns()["items"])
        assert np.array_equal(table.subset([0, 1, 2]).items, table_columns()["items"][:3])

    @pytest.mark.parametrize("duplicate", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_copies_hold_equal_read_only_columns(self, duplicate):
        table = RatingTable(**table_columns())
        other = duplicate(table)
        for name in ("users", "items", "cat_values", "real_raw", "ratings", "real_values"):
            column = getattr(other, name)
            assert not column.flags.writeable
            assert column.dtype == getattr(table, name).dtype
            assert np.array_equal(column, getattr(table, name))
        assert other.schema == table.schema
        assert np.array_equal(other.standardization.mean, table.standardization.mean)


class TestLoadTable:
    def test_single_row_parse(self, tmp_path):
        # one categorical (card 2) and one real context
        path = tmp_path / "r.csv"
        write_rows(path, ["0,3,1,0.5,4.0", "1,2,0,1.5,2.0"])
        table = load_table(path, two_context_schema())
        assert table.users[0] == 0 and table.items[0] == 3 and table.ratings[0] == 4.0
        assert table.cat_values[0, 0] == 1
        # z-scored: column (0.5, 1.5) -> (-1, 1)
        assert table.real_values[0, 0] == pytest.approx(-1.0)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no records"):
            load_table(path, two_context_schema())

    def test_header_only_errors(self, tmp_path):
        path = tmp_path / "h.csv"
        write_rows(path, [])
        with pytest.raises(DataError, match="no records"):
            load_table(path, two_context_schema())

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, ["0,3,1,0.5,4.0", "0,3,1,4.0"])
        with pytest.raises(DataError, match="line 3"):
            load_table(path, two_context_schema())

    def test_out_of_range_item(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, ["0,99,1,0.5,4.0"])
        with pytest.raises(DataError, match="item index 99"):
            load_table(path, two_context_schema())

    def test_out_of_range_category(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, ["0,3,7,0.5,4.0"])
        with pytest.raises(DataError, match="mood"):
            load_table(path, two_context_schema())

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,3,1,0.5,high", "non-numeric rating"),
            ("0,3,1,0.5,nan", "line 2: non-finite rating 'nan'"),
            ("0,3,1,0.5,inf", "line 2: non-finite rating 'inf'"),
            ("0,3,1,-inf,4.0", "line 2: non-finite context 'price' value '-inf'"),
            ("0,3,1,NaN,4.0", "line 2: non-finite context 'price' value 'NaN'"),
        ],
        ids=["text_rating", "nan_rating", "inf_rating", "inf_real", "nan_real"],
    )
    def test_non_numeric_rating(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        write_rows(path, [row])
        with pytest.raises(DataError, match=message):
            load_table(path, two_context_schema())

    def test_comoda_shaped_load(self, tmp_path):
        # 2296 records, 121 users, 1232 items, 12 categorical contexts
        rng = np.random.default_rng(0)
        n, users, items, d = 2296, 121, 1232, 12
        contexts = tuple(ContextVariable(f"c{i}", "categorical", 4) for i in range(d))
        schema = ContextSchema(users, items, contexts)
        header = "user,item," + ",".join(f"c{i}" for i in range(d)) + ",rating"
        rows = []
        for _ in range(n):
            fields = [str(rng.integers(users)), str(rng.integers(items))]
            fields += [str(rng.integers(4)) for _ in range(d)]
            fields.append(str(rng.integers(1, 6)))
            rows.append(",".join(fields))
        path = tmp_path / "comoda_shaped.csv"
        write_rows(path, rows, header=header)
        table = load_table(path, schema)
        assert len(table) == 2296
        assert table.schema.user_count == 121
        assert table.schema.item_count == 1232
        assert table.schema.context_count == 12

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        schema = two_context_schema()
        table = build_table(
            schema,
            users=rng.integers(0, 5, size=20),
            items=rng.integers(0, 10, size=20),
            cat=rng.integers(0, 2, size=(20, 1)),
            real=rng.normal(size=(20, 1)),
            ratings=rng.normal(3, 1, size=20),
        )
        path = tmp_path / "round.csv"
        save_table(table, path)
        again = load_table(path, schema)
        assert np.array_equal(again.users, table.users)
        assert np.array_equal(again.items, table.items)
        assert np.array_equal(again.cat_values, table.cat_values)
        assert np.array_equal(again.real_raw, table.real_raw)
        assert np.array_equal(again.ratings, table.ratings)
        assert np.allclose(again.real_values, table.real_values)

    def test_standardization_moments(self, tmp_path):
        rng = np.random.default_rng(2)
        schema = two_context_schema()
        table = build_table(
            schema,
            users=rng.integers(0, 5, size=50),
            items=rng.integers(0, 10, size=50),
            cat=rng.integers(0, 2, size=(50, 1)),
            real=rng.normal(2.0, 3.0, size=(50, 1)),
            ratings=rng.normal(3, 1, size=50),
        )
        col = table.real_values[:, 0]
        assert abs(col.mean()) < 1e-9
        assert abs(col.var() - 1.0) < 1e-9

    def test_constant_real_column_warns_and_passes_through(self):
        rng = np.random.default_rng(3)
        schema = two_context_schema()
        with pytest.warns(UserWarning, match="constant"):
            table = build_table(
                schema,
                users=rng.integers(0, 5, size=8),
                items=rng.integers(0, 10, size=8),
                cat=rng.integers(0, 2, size=(8, 1)),
                real=np.full((8, 1), 7.0),
                ratings=rng.normal(3, 1, size=8),
            )
        assert np.allclose(table.real_values, 7.0)


def reference_load(path, schema, delimiter=","):
    """The per-field reader: one ``parse_field`` call per field in file
    order, then the records as one float array, range-checked column by
    column."""
    names = ["user", "item"] + [c.name for c in schema.contexts] + ["rating"]
    kinds = [(True, "user index"), (True, "item index")]
    kinds += [(c.is_categorical, f"context {c.name!r} value") for c in schema.contexts] + [(False, "rating")]
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: no records")
    header = lines[0].split(delimiter)
    if len(header) != len(names):
        raise DataError(f"{path}, line 1: header has {len(header)} fields, expected {len(names)} ({', '.join(names)})")
    linenos, records = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) != len(names):
            raise DataError(f"{path}, line {lineno}: malformed row ({len(parts)} fields, expected {len(names)})")
        linenos.append(lineno)
        records.append([parse_field(text, integer, path, lineno, what) for text, (integer, what) in zip(parts, kinds)])
    if not records:
        raise DataError(f"{path}: no records")
    values = np.array(records, dtype=float)
    found = out_of_range(schema, values[:, 0], values[:, 1], values[:, [2 + d for d in schema.categorical_indices]])
    if found:
        what, row, code, count = found
        raise DataError(f"{path}, line {linenos[row]}: {what} {code} out of range [0, {count})")
    cats, raw = context_columns(schema, values[:, 2:-1])
    return RatingTable(schema, values[:, 0].astype(np.int64), values[:, 1].astype(np.int64), cats, raw,
                       values[:, -1].copy(), fit_standardization(raw))


def loads_alike(path, schema, delimiter=","):
    """``load_table`` gives the per-field reader's columns, dtypes included,
    or its error text; returns the error text, or None."""
    try:
        expected = reference_load(path, schema, delimiter)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_table(path, schema, delimiter)
        assert str(got.value) == str(exc)
        return str(exc)
    table = load_table(path, schema, delimiter)
    for name in ("users", "items", "cat_values", "real_raw", "ratings", "real_values"):
        column, want = getattr(table, name), getattr(expected, name)
        assert column.dtype == want.dtype and np.array_equal(column, want), name
    return None


HEADER = "user,item,mood,price,rating"
BAD_PAIRS = {
    # an earlier line's later column and a later line's earlier column
    "non_integer": ("0,3,1,0.5,4.0", "0,3,x,0.5,4.0", "0,y,1,0.5,4.0", "line 3: non-integer context 'mood' value 'x'"),
    "non_numeric": ("0,3,1,0.5,4.0", "0,3,1,0.5,high", "0,3,1,low,4.0", "line 3: non-numeric rating 'high'"),
    "non_finite": ("0,3,1,0.5,4.0", "0,3,1,0.5,inf", "0,3,1,nan,4.0", "line 3: non-finite rating 'inf'"),
    "malformed": ("0,3,1,0.5,4.0", "0,3,1,0.5,4.0,9", "0,3,1", "line 3: malformed row (6 fields, expected 5)"),
    "field_before_malformed": ("0,3,1,0.5,4.0", "0,3,1,0.5,?", "0,3,1", "line 3: non-numeric rating '?'"),
    "malformed_before_field": ("0,3,1,0.5,4.0", "0,3,1", "0,3,1,0.5,?", "line 3: malformed row (3 fields, expected 5)"),
    # ranges are checked column by column after parsing, so the user column
    # of the later line comes first
    "out_of_range": ("0,3,1,0.5,4.0", "0,3,1,0.5,4.0", "0,99,1,0.5,4.0", "line 4: item index 99 out of range [0, 40)"),
    "range_by_column": ("0,3,1,0.5,4.0", "0,99,1,0.5,4.0", "9,3,1,0.5,4.0", "line 4: user index 9 out of range [0, 5)"),
}


class TestColumnReader:
    @pytest.mark.parametrize(
        "text, delimiter",
        [
            (f"{HEADER}\n0,3,1,0.5,4.0\n\n   \n\t\n1,2,0,1.5,2.0\n", ","),
            (f"{HEADER}\r\n0,3,1,0.5,4.0\r\n\r\n1,2,0,1.5,2.0\r\n", ","),
            (f"{HEADER}\n 3,+3,1,0.5, 4.0\n1,3_0,0 ,+1.5e0,1_0.5\n٣,1,1,.5,-0.0\n", ","),
            (HEADER.replace(",", "\t") + "\n0\t3\t1\t0.5\t4.0\n1\t2\t0\t1.5\t2.0\n", "\t"),
            (HEADER.replace(",", ";;") + "\n0;;3;;1;;0.5;;4.0\n1;;2;;0;;1.5;;2.0\n", ";;"),
        ],
        ids=["blank_lines", "crlf", "spellings", "tab", "double_semicolon"],
    )
    def test_clean_files_load_as_the_per_field_reader_loads_them(self, tmp_path, text, delimiter):
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert loads_alike(path, two_context_schema(items=40), delimiter) is None

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,3,1,0.5,4.0", "", "  ", "0,99,1,0.5,4.0"], "line 5: item index 99 out of range [0, 40)"),
            (["", "0,3,1,0.5,4.0", "\t", "0,3,1"], "line 5: malformed row (3 fields, expected 5)"),
            (["0,3,1,0.5,4.0", " ", "0,1e0,1,0.5,4.0"], "line 4: non-integer item index '1e0'"),
            (["0,3,1,0.5,4.0", "0,3,1,0.5,4.0", "0,3,1,0.5,nan"], "line 4: non-finite rating 'nan'"),
            ([""], "no records"),
            (["   "], "no records"),
        ],
        ids=["range_after_blanks", "malformed_after_blanks", "index_after_blank", "nan_rating", "blank_record",
             "whitespace_record"],
    )
    def test_errors_name_the_per_field_readers_line(self, tmp_path, rows, message):
        path = tmp_path / "r.csv"
        write_rows(path, rows)
        assert message in loads_alike(path, two_context_schema(items=40))

    @pytest.mark.parametrize(
        "delimiter_rows, message",
        [
            (["0;;3;;1;;0.5;;;4.0"], "line 2: non-numeric rating ';4.0'"),
            (["0;;;3;;1;;0.5;;4.0"], "line 2: non-integer item index ';3'"),
            (["0;;3;;1;;0.5;;4.0;"], "line 2: non-numeric rating '4.0;'"),
            (["0;;3;;1;;0.5;;4.0", "1;;3;;1;;0.5;;4.0;;;"], "line 3: malformed row (6 fields, expected 5)"),
        ],
        ids=["rating_starts_with_half", "item_starts_with_half", "rating_ends_with_half", "trailing_delimiter"],
    )
    def test_multi_character_delimiter_keeps_fields_on_their_line(self, tmp_path, delimiter_rows, message):
        path = tmp_path / "r.csv"
        write_rows(path, delimiter_rows, header=HEADER.replace(",", ";;"))
        assert message in loads_alike(path, two_context_schema(items=40), ";;")

    @pytest.mark.parametrize("kind", list(BAD_PAIRS))
    def test_two_bad_fields_report_the_per_field_readers_choice(self, tmp_path, kind):
        *rows, message = BAD_PAIRS[kind]
        path = tmp_path / "r.csv"
        write_rows(path, rows)
        assert message in loads_alike(path, two_context_schema(items=40))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("99999999999999999999,3,1,0.5,4.0", "user index 99999999999999999999 out of range [0, 5)"),
            ("0,-99999999999999999999,1,0.5,4.0", "item index -99999999999999999999 out of range [0, 40)"),
            ("0,3,18446744073709551616,0.5,4.0", "context 'mood' code 18446744073709551616 out of range [0, 2)"),
            ("9007199254740993,3,1,0.5,4.0", "user index 9007199254740993 out of range [0, 5)"),
        ],
        ids=["user_above_int64", "item_below_int64", "category_above_int64", "user_above_float_precision"],
    )
    def test_codes_beyond_int64_are_out_of_range_on_their_line(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        write_rows(path, ["0,3,1,0.5,4.0", row])
        with pytest.raises(DataError, match=f"line 3: {re.escape(message)}$"):
            load_table(path, two_context_schema(items=40))
        # the per-field reader named the same line, with the code rounded to a float
        with pytest.raises(DataError, match="line 3: .* out of range"):
            reference_load(path, two_context_schema(items=40))

    def test_clean_file_never_parses_field_by_field(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("parse_field called on a clean file")

        path = tmp_path / "r.csv"
        write_rows(path, ["0,3,1,0.5,4.0", "", "1,2,0,1.5,2.0"])
        monkeypatch.setattr(data, "parse_field", refuse)
        table = load_table(path, two_context_schema())
        assert table.users.tolist() == [0, 1] and table.ratings.tolist() == [4.0, 2.0]

    def test_query_columns_match_the_records(self, tmp_path):
        path = tmp_path / "q.csv"
        write_rows(path, ["0,3,1,0.5", "", "2,+4, 0,-1e3"], header="user,item,mood,price")
        linenos, columns = data.read_columns(path, two_context_schema(), ",", rating=False)
        assert list(linenos) == [2, 4]
        assert [c.tolist() for c in columns] == [[0, 2], [3, 4], [1, 0], [0.5, -1000.0]]
        assert [c.dtype for c in columns] == [np.int64, np.int64, np.int64, np.float64]


def reference_context_rows(table, reals):
    """Schema-order context tuples, one schema walk per record: the categorical
    codes and the matching columns of ``reals``."""
    rows = []
    for i in range(len(table)):
        row, ci, ri = [], 0, 0
        for ctx in table.schema.contexts:
            if ctx.is_categorical:
                row.append(int(table.cat_values[i, ci]))
                ci += 1
            else:
                row.append(float(reals[i, ri]))
                ri += 1
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("kind", ["interleaved", "no_contexts"])
class TestContextCodec:
    def test_rows_and_records_match_reference_loop(self, kind):
        schema = codec_schema(kind)
        table = codec_table(schema)
        rows = raw_context_rows(table)
        assert rows == reference_context_rows(table, table.real_raw)
        kinds = [int if c.is_categorical else float for c in schema.contexts]
        assert all(type(row) is tuple and [type(v) for v in row] == kinds for row in rows)
        # the standardized values, one row at a time
        standardized = reference_context_rows(table, table.real_values)
        for i in range(len(table)):
            (row,) = context_rows(schema, table.cat_values[i : i + 1], table.real_values[i : i + 1])
            assert row == standardized[i]
            assert type(row) is tuple and [type(v) for v in row] == kinds

    def test_columns_invert_rows(self, kind):
        schema = codec_schema(kind)
        table = codec_table(schema)
        cats, reals = context_columns(schema, raw_context_rows(table))
        assert cats.dtype == np.int64 and np.array_equal(cats, table.cat_values)
        assert np.array_equal(reals, table.real_raw)
        assert cats.flags.c_contiguous and reals.flags.c_contiguous

    def test_save_table_bytes_match_reference_writer(self, tmp_path, kind):
        schema = codec_schema(kind)
        table = codec_table(schema)
        path = tmp_path / "t.csv"
        save_table(table, path, delimiter=";")
        lines = [";".join(["user", "item"] + [c.name for c in schema.contexts] + ["rating"])]
        for i, ctx in enumerate(reference_context_rows(table, table.real_raw)):
            fields = [str(int(table.users[i])), str(int(table.items[i]))]
            fields += [str(v) if isinstance(v, int) else repr(v) for v in ctx]
            lines.append(";".join(fields + [repr(float(table.ratings[i]))]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        again = load_table(path, schema, delimiter=";")
        for name in ("users", "items", "cat_values", "real_raw", "ratings"):
            assert np.array_equal(getattr(again, name), getattr(table, name)), name


class TestGroupByUser:
    def test_counting(self):
        schema = ContextSchema(2, 3, ())
        table = build_table(schema, users=[0, 0, 1], items=[0, 1, 2], ratings=[1.0, 2.0, 3.0])
        blocks = group_by_user(table)
        assert [b.user for b in blocks] == [0, 1]
        assert [b.count for b in blocks] == [2, 1]
        assert sum(b.count for b in blocks) == len(table)

    def test_single_user(self):
        schema = ContextSchema(1, 3, ())
        table = build_table(schema, users=[0, 0, 0], items=[2, 0, 1], ratings=[1.0, 2.0, 3.0])
        blocks = group_by_user(table)
        assert len(blocks) == 1
        # row order preserved
        assert np.array_equal(blocks[0].items, [2, 0, 1])

    def test_sushi_shaped_grouping(self):
        rng = np.random.default_rng(4)
        schema = ContextSchema(5000, 100, ())
        n = 50_000
        users = np.repeat(np.arange(5000), 10)
        table = build_table(
            schema, users=users, items=rng.integers(0, 100, size=n),
            ratings=rng.integers(0, 5, size=n).astype(float),
        )
        blocks = group_by_user(table)
        assert len(blocks) == 5000
        assert np.mean([b.count for b in blocks]) == pytest.approx(10.0)

    def test_matches_reference_loop_on_shuffled_table(self):
        rng = np.random.default_rng(12)
        schema = ContextSchema(
            40, 9, (ContextVariable("mood", "categorical", 3), ContextVariable("price", "real"))
        )
        n = 400
        table = build_table(
            schema, users=rng.integers(0, 40, size=n), items=rng.integers(0, 9, size=n),
            cat=rng.integers(0, 3, size=n), real=rng.normal(size=n), ratings=rng.normal(size=n),
        )
        blocks = group_by_user(table)
        expected = np.unique(table.users)
        assert [b.user for b in blocks] == expected.tolist()
        for block, user in zip(blocks, expected):
            idx = np.flatnonzero(table.users == user)
            assert np.array_equal(block.items, table.items[idx])
            assert np.array_equal(block.cat_values, table.cat_values[idx])
            assert np.array_equal(block.real_values, table.real_values[idx])
            assert np.array_equal(block.ratings, table.ratings[idx])

    def test_empty_table_rejected(self):
        schema = ContextSchema(1, 1, ())
        table = build_table(schema, users=[], items=[], ratings=[])
        with pytest.raises(ValueError, match="empty"):
            group_by_user(table)

    def test_blocks_are_read_only(self):
        # the bound memoizes its plan on the blocks, so they must not change
        schema = ContextSchema(2, 3, ())
        table = build_table(schema, users=[1, 0, 1], items=[0, 1, 2], ratings=[1.0, 2.0, 3.0])
        blocks = group_by_user(table)
        for block in blocks:
            with pytest.raises(ValueError, match="read-only"):
                block.items[0] = 2
            with pytest.raises(ValueError, match="read-only"):
                block.ratings[0] = 0.0
        with pytest.raises(TypeError):
            blocks[0] = blocks[1]
        with pytest.raises(ValueError, match="read-only"):
            table.ratings[0] = 5.0


class TestMakeFolds:
    def _table(self, n, seed=0):
        rng = np.random.default_rng(seed)
        schema = ContextSchema(5, 10, ())
        return build_table(
            schema, users=rng.integers(0, 5, size=n), items=rng.integers(0, 10, size=n),
            ratings=rng.normal(size=n),
        )

    def test_balanced_sizes(self):
        plan = make_folds(self._table(10), k=5, seed=0)
        sizes = [plan.test_indices(f).size for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_determinism(self):
        t = self._table(23)
        p1 = make_folds(t, k=5, seed=42)
        p2 = make_folds(t, k=5, seed=42)
        assert np.array_equal(p1.assignments, p2.assignments)
        p3 = make_folds(t, k=5, seed=43)
        assert not np.array_equal(p1.assignments, p3.assignments)

    def test_food_sized_folds(self):
        plan = make_folds(self._table(5554), k=5, seed=1)
        sizes = sorted(plan.test_indices(f).size for f in range(5))
        assert set(sizes) <= {1110, 1111}
        assert sum(sizes) == 5554

    def test_union_and_disjointness(self):
        t = self._table(37)
        plan = make_folds(t, k=4, seed=7)
        all_idx = np.concatenate([plan.test_indices(f) for f in range(4)])
        assert sorted(all_idx.tolist()) == list(range(37))
        for f in range(4):
            test = set(plan.test_indices(f).tolist())
            train = set(plan.train_indices(f).tolist())
            assert test.isdisjoint(train)
            assert test | train == set(range(37))

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_folds(self._table(3), k=5, seed=0)

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_folds(self._table(10), k=1, seed=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, "3", None])
    def test_k_must_be_an_integer(self, k):
        # a fractional count gave fold labels past k - 1
        with pytest.raises(ValueError, match="fold count must be an integer"):
            make_folds(self._table(10), k=k, seed=0)
        assert make_folds(self._table(10), k=np.int64(2), seed=0).k == 2
