"""README's Python examples run as written, and their comments hold."""

import ast
import io
import os
import re
import tokenize

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _python_blocks():
    with open(os.path.join(ROOT, "README.md")) as handle:
        text = handle.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def _trailing_comments(source):
    # line number -> text of the comment that ends that line
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens
            if tok.type == tokenize.COMMENT}


def _claimed(comment):
    # the comment as a literal, or the literal before a ": " explanation,
    # as in "True: every step of its cube is 1"; None when neither parses
    for text in (comment, comment.split(": ", 1)[0]):
        try:
            return (ast.literal_eval(text),)
        except (ValueError, SyntaxError):
            pass
    return None


def test_readme_examples_run_and_match_their_comments(monkeypatch):
    # the blocks run in order in one namespace, from the repository
    # root; an expression line whose comment is a literal must equal it
    monkeypatch.chdir(ROOT)
    namespace = {}
    checked, wrong = [], []
    for source in _python_blocks():
        comments = _trailing_comments(source)
        for node in ast.parse(source).body:
            claimed = _claimed(comments.get(node.end_lineno, ""))
            if isinstance(node, ast.Expr) and claimed is not None:
                line = ast.get_source_segment(source, node)
                value = eval(compile(ast.Expression(node.value), "README",
                                     "eval"), namespace)
                checked.append(line)
                if value != claimed[0]:
                    wrong.append((line, value, claimed[0]))
            else:
                exec(compile(ast.Module([node], []), "README", "exec"),
                     namespace)
    assert wrong == []
    assert len(checked) >= 10
