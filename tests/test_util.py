import re

import pytest

from deskmt.util import DataError, read_json, read_text


class TestReadText:
    def test_newlines_translated_as_text_mode_reading_does(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\x0cd\u2028e".encode("utf-8"))
        text = read_text(str(path), "test file")
        with open(path, encoding="utf-8") as fh:
            assert text == fh.read()
        # \x0c and \u2028 end no line, unlike str.splitlines
        assert text.split("\n") == ["a", "b", "c\x0cd\u2028e"]

    def test_bad_utf8_is_located_by_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc \xff\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: test file is not valid UTF-8")):
            read_text(str(path), "test file")

    def test_missing_file_names_what_and_path(self, tmp_path):
        path = tmp_path / "missing.txt"
        with pytest.raises(DataError, match=re.escape(f"cannot read test file {path}")):
            read_text(str(path), "test file")


class TestReadJson:
    def test_object(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1, 2]}\n', encoding="utf-8")
        assert read_json(str(path), "doc") == {"a": [1, 2]}

    @pytest.mark.parametrize("text, problem", [
        ('{"a": ', "doc is not JSON"),
        ("[1, 2]", "doc is not a JSON object"),
        ('"a"', "doc is not a JSON object"),
    ], ids=["truncated", "list", "string"])
    def test_not_an_object_is_data_error(self, tmp_path, text, problem):
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {problem}")):
            read_json(str(path), "doc")
