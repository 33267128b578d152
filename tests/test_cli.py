import json
import os
import re
import shutil
import struct
import unicodedata

import pytest

from conftest import DEMO_ANNOTATED, DEMO_INPUT, TOY_DIR
from helpers import join_model_file, split_model_file
from sylpipe import cli, depparse, metrics, ner, pos, seqlabel, wseg
from sylpipe.cli import main


def edited_header(edit):
    """The damage of a model file that edits its JSON header in place."""
    def damage(data):
        magic, header, rest = data.split(b"\n", 2)
        header = json.loads(header)
        edit(header)
        return b"\n".join((magic, json.dumps(header, sort_keys=True,
                                             separators=(",", ":")).encode(), rest))
    return damage


@pytest.fixture(scope="module")
def cli_models(tmp_path_factory):
    """Models trained through the CLI itself."""
    d = str(tmp_path_factory.mktemp("cli_models"))
    assert main(["train", "wseg", "-corpus", os.path.join(TOY_DIR, "wseg.txt"),
                 "-models", d]) == 0
    assert main(["train", "pos", "-corpus", os.path.join(TOY_DIR, "pos.tsv"),
                 "-models", d, "-epochs", "8"]) == 0
    assert main(["train", "ner", "-corpus", os.path.join(TOY_DIR, "ner.tsv"),
                 "-models", d, "-epochs", "8"]) == 0
    assert main(["train", "parse", "-corpus", os.path.join(TOY_DIR, "parse.conll"),
                 "-models", d, "-epochs", "12"]) == 0
    return d


class TestTrain:
    def test_model_files_and_logs_written(self, cli_models):
        for task in ("wseg", "pos", "ner", "parse"):
            assert os.path.exists(os.path.join(cli_models, f"{task}.model"))
            log = os.path.join(cli_models, f"{task}.train.log")
            assert os.path.exists(log)
            with open(log, encoding="utf-8") as fh:
                content = fh.read()
            if task != "wseg":
                assert "training_accuracy=" in content

    def test_bad_word_form_exits_4(self, tmp_path):
        corpus = tmp_path / "seg.txt"
        corpus.write_text("a__b c\n", encoding="utf-8")
        assert main(["train", "wseg", "-corpus", str(corpus), "-models", str(tmp_path)]) == 4

    @pytest.mark.parametrize("text, message", [
        ("a b\n\nc __ d\n", "line 3: bad word form '__'"),
        ("x__y z\n", "line 1: bad word form 'x__y'"),
    ])
    def test_bad_word_form_named_with_its_line(self, tmp_path, capsys, text, message):
        corpus = tmp_path / "seg.txt"
        corpus.write_text(text, encoding="utf-8")
        assert main(["train", "wseg", "-corpus", str(corpus), "-models", str(tmp_path)]) == 4
        assert message in capsys.readouterr().err

    def test_wseg_trains_on_the_lone_underscore_annotate_writes(self, cli_models, tmp_path):
        # annotate writes a lone "_" as the one-syllable word "_"; its forms,
        # space-separated, are a segmentation corpus.
        text, out = tmp_path / "in.txt", tmp_path / "out.txt"
        text.write_text("Tôi _ đi học.\n", encoding="utf-8")
        assert main(["annotate", "-fin", str(text), "-fout", str(out),
                     "-models", cli_models]) == 0
        forms = [line.split("\t")[1] for line in out.read_text(encoding="utf-8").splitlines()
                 if line]
        assert "_" in forms
        corpus = tmp_path / "seg.txt"
        corpus.write_text(" ".join(forms) + "\n", encoding="utf-8")
        models = tmp_path / "models"
        assert main(["train", "wseg", "-corpus", str(corpus), "-models", str(models)]) == 0
        model = wseg.load_segmenter(models / "wseg.model")
        assert ("_",) not in model.lexicon
        assert wseg.segment(model, forms).forms == forms

    def test_internal_value_error_exits_5(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("planted fault")

        monkeypatch.setattr(pos, "train_pos", fail)
        assert main(["train", "pos", "-corpus", os.path.join(TOY_DIR, "pos.tsv"),
                     "-models", str(tmp_path)]) == 5
        assert "internal error: planted fault" in capsys.readouterr().err

    @pytest.mark.parametrize("task, corpus, epochs", [
        ("pos", "pos.tsv", "0"), ("ner", "ner.tsv", "0"),
        ("parse", "parse.conll", "-2"), ("pos", "pos.tsv", "x"),
    ])
    def test_non_positive_epochs_exit_2_without_a_model(self, tmp_path, capsys, task,
                                                        corpus, epochs):
        assert main(["train", task, "-corpus", os.path.join(TOY_DIR, corpus),
                     "-models", str(tmp_path), "-epochs", epochs]) == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("task, corpus, option, value", [
        ("wseg", "wseg.txt", "-window", "-1"), ("wseg", "wseg.txt", "-max-rules", "-3"),
        ("wseg", "wseg.txt", "-window", "two"), ("ner", "ner.tsv", "-combine", "-2"),
    ])
    def test_negative_counts_exit_2_without_a_model(self, tmp_path, capsys, task, corpus,
                                                    option, value):
        assert main(["train", task, "-corpus", os.path.join(TOY_DIR, corpus),
                     "-models", str(tmp_path), option, value]) == 2
        assert "expected a non-negative integer" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("task, corpus, options", [
        ("pos", "pos.tsv", ["-gazetteer", "nope.txt"]), ("pos", "pos.tsv", ["-combine", "5"]),
        ("pos", "pos.tsv", ["-use-ner-features"]), ("pos", "pos.tsv", ["-window", "0"]),
        ("wseg", "wseg.txt", ["-epochs", "3"]), ("wseg", "wseg.txt", ["-seed", "9"]),
        ("ner", "ner.tsv", ["-conllx"]), ("parse", "parse.conll", ["-merge-names"]),
        ("pos", "pos.tsv", ["-gazetteer", "nope.txt", "-combine", "5", "-use-ner-features",
                            "-window", "0"]),
        ("wseg", "wseg.txt", ["-epochs", "3", "-seed", "9"]),
    ])
    def test_flag_of_another_task_exits_2_without_a_model(self, tmp_path, capsys, task,
                                                          corpus, options):
        assert main(["train", task, "-corpus", os.path.join(TOY_DIR, corpus),
                     "-models", str(tmp_path), *options]) == 2
        assert f"unrecognized arguments: {' '.join(options)}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_zero_counts_train_a_segmenter(self, tmp_path):
        assert main(["train", "wseg", "-corpus", os.path.join(TOY_DIR, "wseg.txt"),
                     "-models", str(tmp_path), "-window", "0", "-max-rules", "0"]) == 0
        model = wseg.load_segmenter(str(tmp_path / "wseg.model"))
        assert (model.window_radius, model.rules) == (0, ())

    def test_bad_corpus_column_exits_4_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "pos.tsv"
        corpus.write_text("a\tN\nb c\tV\n", encoding="utf-8")
        assert main(["train", "pos", "-corpus", str(corpus), "-models", str(tmp_path)]) == 4
        assert "line 2: token form may not contain whitespace" in capsys.readouterr().err

    def test_model_path_that_is_a_directory_exits_1_before_training(self, tmp_path, capsys,
                                                                    monkeypatch):
        monkeypatch.setattr(ner, "train_ner", lambda *a, **k: pytest.fail("trained"))
        (tmp_path / "ner.model").mkdir()
        assert main(["train", "ner", "-corpus", os.path.join(TOY_DIR, "ner.tsv"),
                     "-models", str(tmp_path)]) == 1
        assert str(tmp_path / "ner.model") in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ner.model"]

    def test_failed_run_keeps_an_earlier_model_and_leaves_no_new_one(self, tmp_path):
        corpus = tmp_path / "bad.tsv"
        corpus.write_text("a\tN\nb c\tV\n", encoding="utf-8")
        fresh = tmp_path / "fresh"
        assert main(["train", "pos", "-corpus", str(corpus), "-models", str(fresh)]) == 4
        assert os.listdir(fresh) == []
        models = tmp_path / "models"
        assert main(["train", "pos", "-corpus", os.path.join(TOY_DIR, "pos.tsv"),
                     "-models", str(models), "-epochs", "2"]) == 0
        before = {name: (models / name).read_bytes() for name in os.listdir(models)}
        assert sorted(before) == ["pos.model", "pos.train.log"]
        assert main(["train", "pos", "-corpus", str(corpus), "-models", str(models)]) == 4
        assert {name: (models / name).read_bytes() for name in os.listdir(models)} == before

    @pytest.mark.parametrize("task, corpus, epochs", [
        ("wseg", "wseg.txt", "8"), ("pos", "pos.tsv", "8"), ("ner", "ner.tsv", "8"),
        ("parse", "parse.conll", "12"),
    ])
    def test_byte_order_mark_ignored(self, cli_models, tmp_path, task, corpus, epochs):
        with open(os.path.join(TOY_DIR, corpus), "rb") as fh:
            text = fh.read()
        (tmp_path / corpus).write_bytes(b"\xef\xbb\xbf" + text)
        epochs = [] if task == "wseg" else ["-epochs", epochs]  # wseg has no epochs
        assert main(["train", task, "-corpus", str(tmp_path / corpus),
                     "-models", str(tmp_path), *epochs]) == 0
        model = f"{task}.model"
        with open(os.path.join(cli_models, model), "rb") as fh:
            assert (tmp_path / model).read_bytes() == fh.read()

    # Every corpus, the gazetteer too, is read through one NFC rule; the
    # two parse cases keep their first ids.
    @pytest.mark.parametrize("task, corpus, option", [
        pytest.param("parse", "parse.conll", [], id="option0"),
        pytest.param("parse", "parse.conll", ["-conllx"], id="option1"),
        pytest.param("wseg", "wseg.txt", [], id="wseg"),
        pytest.param("pos", "pos.tsv", [], id="pos"),
        pytest.param("ner", "ner.tsv", [], id="ner"),
        pytest.param("ner", "ner.tsv", ["-gazetteer"], id="ner-gazetteer"),
    ])
    def test_decomposed_treebank_trains_the_same_model(self, tmp_path, task, corpus, option):
        with open(os.path.join(TOY_DIR, corpus), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if option == ["-conllx"]:
            # ID, FORM, _, POS, _, _, HEAD, DEPREL, _, _ from the six columns.
            lines = ["\t".join((c[0], c[1], "_", c[2], "_", "_", c[4], c[5], "_", "_"))
                     if len(c) == 6 else "" for c in (line.split("\t") for line in lines)]
        models = []
        for form in ("NFC", "NFD"):
            (tmp_path / form).mkdir()
            path = tmp_path / form / corpus
            path.write_text(unicodedata.normalize(form, "\n".join(lines)), encoding="utf-8")
            args = list(option)
            if option == ["-gazetteer"]:
                gazetteer = tmp_path / form / "gazetteer.txt"
                gazetteer.write_text(unicodedata.normalize(form, "Hà_Nội\nViệt_Nam\n"),
                                     encoding="utf-8")
                args.append(str(gazetteer))
            if task != "wseg":
                args += ["-epochs", "12"]
            assert main(["train", task, "-corpus", str(path), *args,
                         "-models", str(tmp_path / form)]) == 0
            models.append((tmp_path / form / f"{task}.model").read_bytes())
        assert unicodedata.normalize("NFD", "\n".join(lines)) != "\n".join(lines)
        assert models[0] == models[1]

    @pytest.mark.parametrize("text, fault", [
        ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n", "line 1: bad POS tag '_'"),
        ("1\ta\t_\tN\t_\t_\t0\troot\t_\t_\n\n1\ta\t_\tN\t_\t_\t1\troot\t_\t_\n",
         "line 3: token 1 cannot head itself"),
        ("1\ta\t_\tN\t_\t_\t0\troot\t_\t_\n\n# two roots\n"
         "1\ta\t_\tN\t_\t_\t0\troot\t_\t_\n2\tb\t_\tN\t_\t_\t0\troot\t_\t_\n",
         "line 4: expected exactly one root-attached token, got [1, 2]"),
        ("1\ta\t_\tN\t_\t_\t0\troot\t_\n", "line 1: expected 10 tab-separated columns, got 9"),
        ("1\ta\t_\tN\t_\t_\t0\troot\t_\t_\n\nx\tb\t_\tN\t_\t_\t0\troot\t_\t_\n",
         "line 3: non-numeric token index 'x'"),
        ("1\ta\t_\tN\t_\t_\tz\troot\t_\t_\n", "line 1: non-numeric head index 'z'"),
        ("# a comment\n1\ta\t_\tN\t_\t_\t0\troot\t_\t_\n3\tb\t_\tN\t_\t_\t1\tdep\t_\t_\n",
         "line 3: token index 3 breaks the 1..n sequence (expected 2)"),
        ("1\ta\t_\tN\t_\t_\t0\troot\t_\t_\n\n+1\tb\t_\tN\t_\t_\t0\troot\t_\t_\n",
         "line 3: non-numeric token index '+1'"),
        ("\u0661\ta\t_\tN\t_\t_\t0\troot\t_\t_\n", "line 1: non-numeric token index '\u0661'"),
        ("1\ta\t_\tN\t_\t_\t\u0660\troot\t_\t_\n", "line 1: non-numeric head index '\u0660'"),
        ("1\ta\t_\tN\t_\t_\t 0\troot\t_\t_\n", "line 1: non-numeric head index ' 0'"),
        ("01\ta\t_\tN\t_\t_\t0\troot\t_\t_\n", "line 1: token index '01' has a leading zero"),
        ("1\ta\t_\tN\t_\t_\t00\troot\t_\t_\n", "line 1: head index '00' has a leading zero"),
    ], ids=["pos_tag", "self_head", "two_roots", "width", "index", "head", "gap",
            "index_sign", "index_arabic_indic", "head_arabic_indic", "head_space",
            "index_leading_zero", "head_leading_zero"])
    def test_conllx_fault_names_its_line(self, tmp_path, capsys, text, fault):
        corpus = tmp_path / "parse.conllx"
        corpus.write_text(text, encoding="utf-8")
        assert main(["train", "parse", "-corpus", str(corpus), "-conllx",
                     "-models", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith(f"error: {fault}")

    def test_gazetteer_entry_with_a_space_exits_4(self, tmp_path, capsys):
        gazetteer = tmp_path / "gazetteer.txt"
        gazetteer.write_text("Hà_Nội\n\n  Việt_Nam  \nHà Nội\n", encoding="utf-8")
        assert main(["train", "ner", "-corpus", os.path.join(TOY_DIR, "ner.tsv"),
                     "-gazetteer", str(gazetteer), "-models", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: token form may not contain whitespace: 'Hà Nội'")
        assert str(gazetteer) in err
        assert not (tmp_path / "ner.model").exists()

    def test_ner_gold_breaking_the_bio_rule_exits_4(self, tmp_path, capsys):
        # I-PER right after O: the decode mask forbids it, so training refuses it.
        corpus = tmp_path / "ner.tsv"
        corpus.write_text("Tôi\tP\tO\n\nông\tN\tO\nAn\tNp\tI-PER\n", encoding="utf-8")
        assert main(["train", "ner", "-corpus", str(corpus), "-models", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith(
            "error: sentence 2: gold label 'I-PER' may not follow 'O' (BIO rule)")
        assert not (tmp_path / "ner.model").exists()

    def test_missing_corpus(self, tmp_path):
        assert main(["train", "pos", "-corpus", str(tmp_path / "nope.tsv"),
                     "-models", str(tmp_path)]) == 1

    def test_models_path_that_is_a_file_exits_1(self, tmp_path, capsys):
        models = tmp_path / "models"
        models.write_text("", encoding="utf-8")
        assert main(["train", "pos", "-corpus", os.path.join(TOY_DIR, "pos.tsv"),
                     "-models", str(models)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(models) in err
        assert models.read_text(encoding="utf-8") == ""


class TestAnnotate:
    def test_demo_byte_exact(self, cli_models, tmp_path):
        out = str(tmp_path / "output.txt")
        assert main(["annotate", "-fin", DEMO_INPUT, "-fout", out,
                     "-models", cli_models]) == 0
        with open(out, encoding="utf-8") as fh:
            produced = fh.read()
        with open(DEMO_ANNOTATED, encoding="utf-8") as fh:
            assert produced == fh.read()

    def test_matches_library_output(self, cli_models, tmp_path):
        from sylpipe import build_pipeline
        out = str(tmp_path / "out.txt")
        src = tmp_path / "in.txt"
        src.write_text("Họ đang làm việc ở Hà Nội .\nCông ty có hai nhà máy lớn .\n",
                       encoding="utf-8")
        assert main(["annotate", "-fin", str(src), "-fout", out,
                     "-models", cli_models]) == 0
        pipe = build_pipeline(model_dir=cli_models)
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == pipe.annotate(src.read_text(encoding="utf-8")).to_text()

    def test_byte_order_mark_ignored(self, cli_models, tmp_path):
        text = "Hà Nội .\nCông ty có hai nhà máy lớn .\n".encode("utf-8")
        outputs = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            src = tmp_path / f"{name}.txt"
            src.write_bytes(data)
            out = tmp_path / f"{name}.out"
            assert main(["annotate", "-fin", str(src), "-fout", str(out),
                         "-models", cli_models]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        assert outputs[0].startswith("1\tHà".encode("utf-8"))

    def test_workers_flag_removed(self, cli_models, tmp_path):
        out = tmp_path / "never.txt"
        assert main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", cli_models, "-workers", "2"]) == 2
        assert not out.exists()

    def test_wseg_only_columns(self, cli_models, tmp_path):
        out = tmp_path / "seg.txt"
        assert main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", cli_models, "-annotators", "wseg"]) == 0
        for line in out.read_text(encoding="utf-8").strip().split("\n"):
            cols = line.split("\t")
            assert len(cols) == 6
            assert cols[2] == "_" and cols[3] == "O" and cols[4] == "_" and cols[5] == "_"

    def test_missing_input_exits_1_no_output(self, cli_models, tmp_path):
        out = tmp_path / "never.txt"
        code = main(["annotate", "-fin", str(tmp_path / "missing.txt"),
                     "-fout", str(out), "-models", cli_models])
        assert code == 1
        assert not out.exists()

    def test_output_path_that_is_a_directory_exits_1(self, cli_models, tmp_path, capsys,
                                                     monkeypatch):
        # The output is opened before any model is loaded.
        def never(*args, **kwargs):
            pytest.fail("build_pipeline called before the output was opened")

        monkeypatch.setattr(cli, "build_pipeline", never)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", cli_models]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert list(out.iterdir()) == []

    def test_bad_annotator_exits_2(self, cli_models, tmp_path):
        code = main(["annotate", "-fin", DEMO_INPUT,
                     "-fout", str(tmp_path / "x.txt"),
                     "-models", cli_models, "-annotators", "wseg,frobnicate"])
        assert code == 2

    def test_decode_fault_exits_5_naming_the_stage(self, cli_models, tmp_path,
                                                   monkeypatch, capsys):
        def fail(model, sentences, **kwargs):
            raise KeyError(("RIGHT-ARC", "nope"))

        monkeypatch.setattr(depparse, "parse_sentences", fail)
        out = tmp_path / "o.txt"
        out.write_text("an earlier output\n", encoding="utf-8")
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", cli_models])
        assert code == 5
        assert "parse failed: ('RIGHT-ARC', 'nope')" in capsys.readouterr().err
        # The output, opened before the run, is removed when the run fails,
        # but not through a link.
        assert not out.exists()
        link = tmp_path / "link.txt"
        link.symlink_to(out)
        assert main(["annotate", "-fin", DEMO_INPUT, "-fout", str(link),
                     "-models", cli_models]) == 5
        assert link.is_symlink() and out.read_text(encoding="utf-8") == ""

    def test_segmenter_fault_exits_5_naming_the_sentence(self, cli_models, tmp_path,
                                                        monkeypatch, capsys):
        segment = wseg.segment
        calls = []

        def fail_second(model, syllables):
            calls.append(syllables)
            if len(calls) == 2:
                raise KeyError("nope")
            return segment(model, syllables)

        monkeypatch.setattr(wseg, "segment", fail_second)
        text = tmp_path / "in.txt"
        text.write_text("Họ làm việc ở Hà Nội .\nÔng Lê Văn Minh viết về nhà máy tính .\n",
                        encoding="utf-8")
        out = tmp_path / "o.txt"
        code = main(["annotate", "-fin", str(text), "-fout", str(out), "-models", cli_models])
        assert code == 5
        assert "internal error: wseg failed on sentence 2: 'nope'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["c=d", "form@0", "pos@0"])
    def test_template_name_other_than_its_descriptor_exits_3(self, cli_models, tmp_path,
                                                             capsys, name):
        # Rewrite the name of the template prefix2@0 only, not its descriptor.
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        path = models / "pos.model"
        magic, header, rest = path.read_bytes().split(b"\n", 2)
        pair = b'["prefix2@0","prefix2@0"]'
        assert header.count(pair) == 1
        path.write_bytes(b"\n".join(
            (magic, header.replace(pair, b'["%s","prefix2@0"]' % name.encode()), rest)))
        out = tmp_path / "o.txt"
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", str(models)])
        assert code == 3
        assert (f"pos: failed to load {path}: template name {name!r} is not its "
                "descriptor 'prefix2@0'" in capsys.readouterr().err)
        assert not out.exists()

    def test_decode_error_in_a_stage_exits_4_naming_the_stage(self, cli_models, tmp_path,
                                                              capsys):
        # A "bio": true NER model whose labels are all I-X has no legal label
        # for a sentence's first token, so the ner stage cannot decode.
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        magic, header, rest = (models / "ner.model").read_bytes().split(b"\n", 2)
        assert b'"bio":true' in header and b'"B-' in header
        header = header.replace(b'"O"', b'"I-O"').replace(b'"B-', b'"I-B')
        (models / "ner.model").write_bytes(b"\n".join((magic, header, rest)))
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(tmp_path / "o.txt"),
                     "-models", str(models)])
        assert code == 4
        assert re.search(r"^error: ner failed on sentence \d+: no legal label sequence",
                         capsys.readouterr().err, re.M)

    def test_missing_models_exit_3(self, tmp_path):
        code = main(["annotate", "-fin", DEMO_INPUT,
                     "-fout", str(tmp_path / "x.txt"),
                     "-models", str(tmp_path / "empty")])
        assert code == 3

    @pytest.mark.parametrize("source, target, held", [("pos", "ner", "a POS"),
                                                      ("ner", "pos", "an NER")])
    def test_tagger_of_the_other_kind_exits_3(self, cli_models, tmp_path, capsys,
                                              source, target, held):
        # Both load as taggers: a POS model as ner.model would fail on its
        # first label at decode, and an NER model as pos.model would tag
        # every word with an NER label. The load tells them apart by the BIO
        # constraint.
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        path = models / f"{target}.model"
        shutil.copy(models / f"{source}.model", path)
        out = tmp_path / "o.txt"
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", str(models)])
        assert code == 3
        assert (f"error: {target}: failed to load {path}: it holds {held} tagger"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("task, damage, message, load", [
        ("pos", lambda data: b"SYLPIPE-SEQ2" + data[data.index(b"\n"):],
         re.escape("not a SYLPIPE-SEQ3 model file (if it is a sylpipe model of an "
                   "earlier format, retrain it)"), seqlabel.load_linear_model),
        ("parse", lambda data: data[:-8],
         r"corrupt model file \(weight section has \d+ bytes, expected \d+\)",
         depparse.load_parser),
        ("wseg", lambda data: data[:1], "not a SYLPIPE-WSEG2 model file",
         wseg.load_segmenter),
        # Refusals of the model that a well-formed file holds name it too.
        ("parse", edited_header(lambda h: h.update(root_label="zz")),
         re.escape("root label 'zz' is not one of the root labels ['root']"),
         depparse.load_parser),
        ("pos", edited_header(lambda h: h["labels"].__setitem__(1, h["labels"][0])),
         "label alphabet must be non-empty and duplicate-free", seqlabel.load_linear_model),
        ("parse", edited_header(lambda h: h.update(root_labels=["zz"])),
         "root labels must be relations", depparse.load_parser)])
    def test_load_fault_names_the_file_once(self, cli_models, tmp_path, capsys, task,
                                            damage, message, load):
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        path = models / f"{task}.model"
        path.write_bytes(damage(path.read_bytes()))
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(tmp_path / "o.txt"),
                     "-models", str(models)])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(f"error: {task}: failed to load {re.escape(str(path))}: {message}",
                         err)
        assert err.count(str(path)) == 1
        # The reader itself names the file.
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load(path)

    def test_root_label_outside_the_root_labels_exits_3(self, cli_models, tmp_path,
                                                         capsys):
        # The fallback would attach a headless token to the root with it.
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        path = models / "parse.model"
        magic, header, rest = path.read_bytes().split(b"\n", 2)
        assert header.count(b'"root_label":"root"') == 1
        path.write_bytes(b"\n".join(
            (magic, header.replace(b'"root_label":"root"', b'"root_label":"zz"'), rest)))
        out = tmp_path / "o.txt"
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(out),
                     "-models", str(models)])
        assert code == 3
        assert (f"error: parse: failed to load {path}: root label 'zz' is not one of "
                "the root labels ['root']" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("how", ["same path", "hard link", "symbolic link"])
    def test_output_that_is_the_input_exits_2(self, tmp_path, capsys, how):
        # Opening the output would truncate the input, and a failed run
        # would then remove it; the annotate run is refused before either.
        src = tmp_path / "same.txt"
        shutil.copy(DEMO_INPUT, src)
        data = src.read_bytes()
        out = src
        if how == "hard link":
            out = tmp_path / "hard.txt"
            os.link(src, out)
        elif how == "symbolic link":
            out = tmp_path / "soft.txt"
            out.symlink_to(src)
        code = main(["annotate", "-fin", str(src), "-fout", str(out),
                     "-models", str(tmp_path / "nonexistent")])
        assert code == 2
        assert f"error: -fout {out} is the input file {src}" in capsys.readouterr().err
        assert src.read_bytes() == data
        assert out.read_bytes() == data

    @pytest.mark.parametrize("old, new", [(b"suffix2@0", b"suffix@0"),
                                          (b"suffix2@0", b"suffix0@0"),
                                          (b"prefix2@0", b"prefix0@0"),
                                          (b"form@0", b"form3@0")])
    def test_bad_atom_length_exits_3(self, cli_models, tmp_path, capsys, old, new):
        # Rewrite one template of the header line, its name and its descriptor.
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        magic, header, rest = (models / "pos.model").read_bytes().split(b"\n", 2)
        assert header.count(b'"%s"' % old) == 2
        (models / "pos.model").write_bytes(
            b"\n".join((magic, header.replace(b'"%s"' % old, b'"%s"' % new), rest)))
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(tmp_path / "o.txt"),
                     "-models", str(models)])
        assert code == 3
        assert "pos: failed to load" in capsys.readouterr().err

    def test_non_bio_label_in_a_bio_model_exits_3(self, cli_models, tmp_path, capsys):
        # Rename the label O of the NER model, whose header says "bio": true.
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        magic, header, rest = (models / "ner.model").read_bytes().split(b"\n", 2)
        assert header.count(b'"O"') == 1 and b'"bio":true' in header
        (models / "ner.model").write_bytes(
            b"\n".join((magic, header.replace(b'"O"', b'"N"'), rest)))
        code = main(["annotate", "-fin", DEMO_INPUT, "-fout", str(tmp_path / "o.txt"),
                     "-models", str(models)])
        assert code == 3
        assert (f"ner: failed to load {models / 'ner.model'}: bad NER label 'N'"
                in capsys.readouterr().err)


    @staticmethod
    def annotate_with_first_weight(cli_models, tmp_path, task, value):
        """annotate's exit code with the first weight of the task's model set
        to value, and the model file's path."""
        models = tmp_path / "models"
        shutil.copytree(cli_models, models, dirs_exist_ok=True)
        path = models / f"{task}.model"
        lines, weights = split_model_file(path.read_bytes())
        path.write_bytes(join_model_file(lines, struct.pack("<d", value) + weights[8:]))
        return main(["annotate", "-fin", DEMO_INPUT, "-fout", str(tmp_path / "o.txt"),
                     "-models", str(models)]), path

    @pytest.mark.parametrize("task", ["ner", "parse"])
    @pytest.mark.parametrize("value, code", [(2.0 ** 53 + 2, 3), (-2.0 ** 54, 3),
                                             (2.0 ** 53, 3), (-2.0 ** 53, 3)])
    def test_weight_beyond_2_to_53_exits_3(self, cli_models, tmp_path, capsys, task,
                                            value, code):
        # A sum of such weights could be rounded or overflow.
        assert self.annotate_with_first_weight(cli_models, tmp_path, task,
                                               value)[0] == code
        assert re.search(rf"{task}: failed to load .*: weights must be at most "
                         r"2\*\*53 / \d+ in magnitude", capsys.readouterr().err)

    @pytest.mark.parametrize("task", ["ner", "parse"])
    def test_weight_bound_is_on_a_sum(self, cli_models, tmp_path, capsys, task):
        # The largest weight times the rows one gather sums may reach 2**53;
        # one more, or a fraction, exits 3.
        path = os.path.join(cli_models, f"{task}.model")
        if task == "parse":
            rows = len(depparse._templates(depparse.load_parser(path).use_ner_features))
        else:
            model = seqlabel.load_linear_model(path)
            rows = len(model.templates) + len(model.induced_pairs)
        bound = 2 ** 53 // rows
        assert self.annotate_with_first_weight(cli_models, tmp_path, task, bound)[0] == 0
        for value, message in [(-bound - 1, f"weights must be at most 2**53 / {rows}"),
                               (0.5, "weights must be integers")]:
            code, path = self.annotate_with_first_weight(cli_models, tmp_path, task, value)
            assert code == 3
            assert f"{task}: failed to load {path}: {message}" in capsys.readouterr().err


class TestEval:
    def test_pos_self_eval(self, cli_models, capsys):
        assert main(["eval", "pos", "-gold", os.path.join(TOY_DIR, "pos.tsv"),
                     "-models", cli_models]) == 0
        out = capsys.readouterr().out
        acc = float([l for l in out.splitlines()
                     if l.startswith("accuracy=")][0].split("=")[1])
        assert acc >= 0.99

    def test_wseg_self_eval(self, cli_models, capsys):
        assert main(["eval", "wseg", "-gold", os.path.join(TOY_DIR, "wseg.txt"),
                     "-models", cli_models]) == 0
        out = capsys.readouterr().out
        f1 = float([l for l in out.splitlines()
                    if l.startswith("f1=")][0].split("=")[1])
        assert f1 == 1.0

    def test_ner_self_eval(self, cli_models, capsys):
        assert main(["eval", "ner", "-gold", os.path.join(TOY_DIR, "ner.tsv"),
                     "-models", cli_models]) == 0
        out = capsys.readouterr().out
        assert any(l.startswith("f1=") for l in out.splitlines())

    def test_parse_self_eval(self, cli_models, capsys):
        assert main(["eval", "parse", "-gold", os.path.join(TOY_DIR, "parse.conll"),
                     "-models", cli_models]) == 0
        out = capsys.readouterr().out
        uas = float([l for l in out.splitlines()
                     if l.startswith("uas=")][0].split("=")[1])
        assert uas >= 0.95

    def test_wseg_gold_with_a_lone_underscore(self, cli_models, tmp_path, capsys):
        # A lone "_" is the one-syllable word "_", as metrics reads it.
        gold = tmp_path / "gold.txt"
        gold.write_text("Hà_Nội _ đẹp\n", encoding="utf-8")
        assert main(["eval", "wseg", "-gold", str(gold), "-models", cli_models]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "gold_words=3" in out and "predicted_words=3" in out

    @pytest.mark.parametrize("source", ["-models", "-pred"])
    def test_wseg_gold_with_an_empty_syllable(self, cli_models, tmp_path, capsys, source):
        # "__" is no word: neither three empty syllables nor an error that
        # names no line.
        gold = tmp_path / "gold.txt"
        gold.write_text("a b\nx __ y\n", encoding="utf-8")
        assert main(["eval", "wseg", "-gold", str(gold), source,
                     cli_models if source == "-models" else str(gold)]) == 4
        assert "line 2: bad word form '__'" in capsys.readouterr().err

    def test_pred_file_comparison(self, cli_models, tmp_path, capsys):
        gold = os.path.join(TOY_DIR, "pos.tsv")
        assert main(["eval", "pos", "-gold", gold, "-pred", gold]) == 0
        out = capsys.readouterr().out
        assert "accuracy=1.0000" in out

    def test_alignment_error_exit_code(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("x\tN\n", encoding="utf-8")
        b.write_text("x\tN\n\ny\tV\n", encoding="utf-8")
        assert main(["eval", "pos", "-gold", str(a), "-pred", str(b)]) == 4

    @pytest.mark.parametrize("task, gold", [("pos", "pos.tsv"), ("ner", "ner.tsv"),
                                            ("parse", "parse.conll"),
                                            ("wseg", "wseg.txt")])
    def test_truncated_model_exits_3(self, cli_models, tmp_path, task, gold):
        models = tmp_path / "models"
        models.mkdir()
        with open(os.path.join(cli_models, f"{task}.model"), "rb") as fh:
            data = fh.read()
        (models / f"{task}.model").write_bytes(data[:-20])
        assert main(["eval", task, "-gold", os.path.join(TOY_DIR, gold),
                     "-models", str(models)]) == 3

    @pytest.mark.parametrize("task, gold, old, new", [
        ("pos", "pos.tsv", b"SYLPIPE-SEQ1", "SYLPIPE-SEQ3"),
        ("pos", "pos.tsv", b"SYLPIPE-SEQ2", "SYLPIPE-SEQ3"),
        ("parse", "parse.conll", b"SYLPIPE-DEP1", "SYLPIPE-DEP3"),
        ("parse", "parse.conll", b"SYLPIPE-DEP2", "SYLPIPE-DEP3")])
    def test_model_of_the_averaged_format_exits_3(self, cli_models, tmp_path, capsys,
                                                  task, gold, old, new):
        # SEQ1 and DEP1 files hold rounded means, and SEQ2 and DEP2 files
        # join atom values with "|", which a value may hold; no model reads
        # either.
        models = tmp_path / "models"
        models.mkdir()
        path = models / f"{task}.model"
        with open(os.path.join(cli_models, f"{task}.model"), "rb") as fh:
            data = fh.read()
        path.write_bytes(old + data[data.index(b"\n"):])
        assert main(["eval", task, "-gold", os.path.join(TOY_DIR, gold),
                     "-models", str(models)]) == 3
        assert (f"{path}: not a {new} model file (if it is a sylpipe model of an "
                f"earlier format, retrain it)") in capsys.readouterr().err

    def test_old_segmenter_format_exits_3(self, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        (models / "wseg.model").write_text("SYLPIPE-WSEG1\nradius\t2\nlexicon\t0\nrules\t0\n",
                                           encoding="utf-8")
        assert main(["eval", "wseg", "-gold", os.path.join(TOY_DIR, "wseg.txt"),
                     "-models", str(models)]) == 3
        assert "not a SYLPIPE-WSEG2 model file" in capsys.readouterr().err

    @pytest.mark.parametrize("task, gold, label", [
        ("pos", "pos.tsv", b'"N"'), ("parse", "parse.conll", b'"dob"'),
        ("parse", "parse.conll", b'"dep"')])
    def test_label_that_cannot_round_trip_exits_3(self, cli_models, tmp_path, capsys,
                                                  task, gold, label):
        # Rename one label of the header line to "_", which six-column text
        # reads back as unset.
        models = tmp_path / "models"
        models.mkdir()
        with open(os.path.join(cli_models, f"{task}.model"), "rb") as fh:
            magic, header, rest = fh.read().split(b"\n", 2)
        assert header.count(label) == 1
        (models / f"{task}.model").write_bytes(
            b"\n".join((magic, header.replace(label, b'"_"'), rest)))
        assert main(["eval", task, "-gold", os.path.join(TOY_DIR, gold),
                     "-models", str(models)]) == 3
        assert "six-column text cannot hold it" in capsys.readouterr().err

    @pytest.mark.parametrize("task, gold", [("wseg", "wseg.txt"), ("pos", "pos.tsv"),
                                            ("ner", "ner.tsv"), ("parse", "parse.conll")])
    def test_missing_model_exits_3(self, tmp_path, task, gold):
        assert main(["eval", task, "-gold", os.path.join(TOY_DIR, gold),
                     "-models", str(tmp_path / "empty")]) == 3

    @pytest.mark.parametrize("name, text", [
        ("bad NER label", "Hà\tNp\tX-LOC\n"),
        ("invalid BIO", "Hà\tNp\tI-LOC\n"),
        ("form with a space", "Hà Nội\tNp\tB-LOC\n"),
    ])
    def test_bad_prediction_file_exits_4(self, tmp_path, capsys, name, text):
        pred = tmp_path / "pred.tsv"
        gold = tmp_path / "gold.tsv"
        pred.write_text(text, encoding="utf-8")
        gold.write_text("Hà\tNp\tB-LOC\n", encoding="utf-8")
        assert main(["eval", "ner", "-gold", str(gold), "-pred", str(pred)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("task, good, bad, fault", [
        ("wseg", "a b\n", "a__ b\n", "line 1: bad word form 'a__'"),
        ("pos", "a\tN\nb\tV\nc\tN\n", "a\tN\nb\tV\nc\t\n", "line 3: bad POS tag ''"),
        ("ner", "Hà\tNp\tB-LOC\n", "Hà\tNp\tX-LOC\n", "line 1: bad NER label 'X-LOC'"),
        ("parse", "1\ta\tN\tO\t0\troot\n", "1\ta\tN\tO\tx\troot\n",
         "line 1: non-numeric head index 'x'"),
    ], ids=["wseg", "pos", "ner", "parse"])
    def test_bad_prediction_file_is_named(self, tmp_path, capsys, task, good, bad, fault):
        gold = tmp_path / "gold.txt"
        pred = tmp_path / "pred.txt"
        gold.write_text(good, encoding="utf-8")
        pred.write_text(bad, encoding="utf-8")
        assert main(["eval", task, "-gold", str(gold), "-pred", str(pred)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fault}")
        assert str(pred) in err and str(gold) not in err

    def test_input_not_utf8_exits_4(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"H\xe0\tNp\n")
        assert main(["eval", "pos", "-gold", str(gold), "-pred", str(gold)]) == 4

    def test_internal_value_error_exits_5(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("planted fault")

        monkeypatch.setattr(metrics, "tagging_accuracy", fail)
        gold = os.path.join(TOY_DIR, "pos.tsv")
        assert main(["eval", "pos", "-gold", gold, "-pred", gold]) == 5
        assert "internal error: planted fault" in capsys.readouterr().err

    def test_needs_pred_or_models(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SYLPIPE_MODELS", raising=False)
        gold = os.path.join(TOY_DIR, "pos.tsv")
        assert main(["eval", "pos", "-gold", gold]) == 2


class TestBench:
    def test_stage_lines_printed(self, cli_models, tmp_path, capsys):
        src = tmp_path / "bench.txt"
        lines = ["Họ đang làm việc ở Hà Nội .",
                 "Công ty xây dựng nhà máy mới ."] * 40
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["bench", "-fin", str(src), "-models", cli_models,
                     "-reps", "1"]) == 0
        out = capsys.readouterr().out
        for stage in ("wseg", "pos", "ner", "parse", "full"):
            assert any(l.startswith(stage) and "words/sec" in l
                       for l in out.splitlines()), out

    def test_byte_order_mark_not_counted(self, cli_models, tmp_path, capsys):
        text = "Hà Nội .\nCông ty có hai nhà máy lớn .\n".encode("utf-8")
        words = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            src = tmp_path / f"{name}.txt"
            src.write_bytes(data)
            assert main(["bench", "-fin", str(src), "-models", cli_models,
                         "-reps", "1"]) == 0
            words.append(capsys.readouterr().out.split()[1])
        assert words[1] == words[0]

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_non_positive_reps_exit_2(self, cli_models, tmp_path, capsys, reps):
        src = tmp_path / "bench.txt"
        src.write_text("Họ đang làm việc ở Hà Nội .\n", encoding="utf-8")
        assert main(["bench", "-fin", str(src), "-models", cli_models, "-reps", reps]) == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_whitespace_only_input_exits_4(self, cli_models, tmp_path, capsys):
        src = tmp_path / "bench.txt"
        src.write_text("  \n\t\n", encoding="utf-8")
        assert main(["bench", "-fin", str(src), "-models", cli_models, "-reps", "1"]) == 4
        assert "error: cannot benchmark an empty document" in capsys.readouterr().err


def test_env_var_model_dir(cli_models, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYLPIPE_MODELS", cli_models)
    out = str(tmp_path / "o.txt")
    assert main(["annotate", "-fin", DEMO_INPUT, "-fout", out]) == 0
    assert os.path.exists(out)
