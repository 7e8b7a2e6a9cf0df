#include "lexer.hh"

#include <cctype>
#include <cstddef>

namespace pmlint {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Characters an annotation name may consist of. */
bool
annotNameChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-';
}

/** Multi-character punctuators, longest first within each length. */
const char *const kPunct3[] = {"<<=", ">>=", "...", "->*", "<=>"};
const char *const kPunct2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                               ">=", "==", "!=", "&&", "||", "+=", "-=",
                               "*=", "/=", "%=", "&=", "|=", "^=", "##"};

/**
 * Parse a comment body that contains the marker into an Annotation.
 * Returns false when the text after the marker is not even an
 * annotation *candidate* — the name scanned from the identifier
 * charset must be non-empty and end in "-ok" — so documentation that
 * mentions the marker (like this tool's own sources) is ignored
 * rather than reported as malformed.
 */
bool
parseAnnotation(int line, int col, const std::string &body, Annotation &a)
{
    a.line = line;
    a.col = col;
    a.wellFormed = false;
    std::size_t pos = body.find("pmlint:");
    pos += 7;
    while (pos < body.size() &&
           std::isspace(static_cast<unsigned char>(body[pos])))
        ++pos;
    std::size_t nameEnd = pos;
    while (nameEnd < body.size() && annotNameChar(body[nameEnd]))
        ++nameEnd;
    a.name = body.substr(pos, nameEnd - pos);
    if (a.name.size() < 4 ||
        a.name.compare(a.name.size() - 3, 3, "-ok") != 0)
        return false;
    std::size_t paren = nameEnd;
    while (paren < body.size() &&
           std::isspace(static_cast<unsigned char>(body[paren])))
        ++paren;
    if (paren < body.size() && body[paren] == '(') {
        std::size_t close = body.rfind(')');
        if (close != std::string::npos && close > paren)
            a.reason = body.substr(paren + 1, close - paren - 1);
    }
    // Well-formed: a known annotation name with a non-empty reason.
    a.wellFormed = annotationRules().count(a.name) > 0 &&
                   a.reason.find_first_not_of(" \t") != std::string::npos;
    return true;
}

class Scanner
{
  public:
    Scanner(std::string relPath, const std::string &text)
        : _text(text)
    {
        _out.relPath = std::move(relPath);
    }

    SourceFile
    run()
    {
        while (_pos < _text.size())
            scanOne();
        return std::move(_out);
    }

  private:
    const std::string &_text;
    SourceFile _out;
    std::size_t _pos = 0;
    int _line = 1;
    int _col = 1;
    bool _atLineStart = true; //!< Only whitespace seen on this line.

    char peek(std::size_t off = 0) const
    {
        return _pos + off < _text.size() ? _text[_pos + off] : '\0';
    }

    void
    advance()
    {
        if (_text[_pos] == '\n') {
            ++_line;
            _col = 1;
            _atLineStart = true;
        } else {
            ++_col;
        }
        ++_pos;
    }

    void
    noteAnnotation(int line, int col, const std::string &body)
    {
        if (body.find("pmlint:") == std::string::npos)
            return;
        Annotation a;
        if (parseAnnotation(line, col, body, a))
            _out.annotations.push_back(std::move(a));
    }

    void
    scanOne()
    {
        const char c = peek();
        if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
            advance();
            return;
        }
        if (c == '#' && _atLineStart) {
            scanDirective();
            return;
        }
        _atLineStart = false;
        if (c == '/' && peek(1) == '/') {
            scanLineComment();
            return;
        }
        if (c == '/' && peek(1) == '*') {
            scanBlockComment();
            return;
        }
        if (c == '"') {
            scanString();
            return;
        }
        if (c == '\'') {
            scanCharLit();
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
            scanNumber();
            return;
        }
        if (identStart(c)) {
            scanIdent();
            return;
        }
        scanPunct();
    }

    void
    scanDirective()
    {
        PpDirective d;
        d.line = _line;
        d.col = _col;
        advance(); // '#'
        while (peek() == ' ' || peek() == '\t')
            advance();
        while (identCont(peek())) {
            d.name += peek();
            advance();
        }
        while (peek() == ' ' || peek() == '\t')
            advance();
        // Capture the rest of the (first) line; swallow continuations.
        // A trailing "// comment" on the directive line is still
        // scanned for pmlint annotations.
        std::string rest;
        const int restCol = _col;
        while (_pos < _text.size()) {
            const char ch = peek();
            if (ch == '\n') {
                if (!rest.empty() && rest.back() == '\\') {
                    rest.pop_back();
                    advance();
                    continue; // continuation line
                }
                break;
            }
            rest += ch;
            advance();
        }
        std::size_t comment = rest.find("//");
        if (comment != std::string::npos) {
            const std::string tail = rest.substr(comment);
            noteAnnotation(d.line,
                           restCol + static_cast<int>(comment), tail);
            rest = rest.substr(0, comment);
        }
        while (!rest.empty() &&
               std::isspace(static_cast<unsigned char>(rest.back())))
            rest.pop_back();
        d.rest = rest;
        _out.directives.push_back(std::move(d));
    }

    void
    scanLineComment()
    {
        const int line = _line;
        const int col = _col;
        std::string body;
        while (_pos < _text.size() && peek() != '\n') {
            body += peek();
            advance();
        }
        noteAnnotation(line, col, body);
    }

    void
    scanBlockComment()
    {
        const int line = _line;
        const int col = _col;
        std::string body;
        advance();
        advance();
        while (_pos < _text.size() &&
               !(peek() == '*' && peek(1) == '/')) {
            body += peek();
            advance();
        }
        if (_pos < _text.size()) {
            advance();
            advance();
        }
        noteAnnotation(line, col, body);
    }

    void
    scanString()
    {
        // Raw-string prefix? The 'R' (or u8R/uR/UR/LR) has already been
        // emitted as an identifier token by scanIdent(); it detects the
        // following quote itself, so reaching here means an ordinary
        // literal.
        const int line = _line;
        const int col = _col;
        advance(); // opening quote
        while (_pos < _text.size() && peek() != '"') {
            if (peek() == '\\' && _pos + 1 < _text.size())
                advance();
            if (peek() == '\n')
                break; // unterminated; don't cascade
            advance();
        }
        if (_pos < _text.size() && peek() == '"')
            advance();
        _out.tokens.push_back({Token::Kind::String, "", line, col});
    }

    void
    scanRawString(int line, int col)
    {
        // At the opening quote of R"delim( ... )delim".
        advance(); // '"'
        std::string delim;
        while (_pos < _text.size() && peek() != '(') {
            delim += peek();
            advance();
        }
        const std::string close = ")" + delim + "\"";
        std::size_t end = _text.find(close, _pos);
        if (end == std::string::npos) {
            while (_pos < _text.size())
                advance();
        } else {
            while (_pos < end + close.size())
                advance();
        }
        _out.tokens.push_back({Token::Kind::String, "", line, col});
    }

    void
    scanCharLit()
    {
        const int line = _line;
        const int col = _col;
        advance();
        while (_pos < _text.size() && peek() != '\'') {
            if (peek() == '\\' && _pos + 1 < _text.size())
                advance();
            if (peek() == '\n')
                break;
            advance();
        }
        if (_pos < _text.size() && peek() == '\'')
            advance();
        _out.tokens.push_back({Token::Kind::CharLit, "", line, col});
    }

    void
    scanNumber()
    {
        const int line = _line;
        const int col = _col;
        std::string text;
        while (_pos < _text.size()) {
            const char c = peek();
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '_') {
                text += c;
                advance();
            } else if (c == '\'' && identCont(peek(1))) {
                text += c; // digit separator: 1'000'000
                advance();
            } else if ((c == '+' || c == '-') && !text.empty() &&
                       (text.back() == 'e' || text.back() == 'E' ||
                        text.back() == 'p' || text.back() == 'P')) {
                text += c; // exponent sign
                advance();
            } else {
                break;
            }
        }
        _out.tokens.push_back(
            {Token::Kind::Number, std::move(text), line, col});
    }

    void
    scanIdent()
    {
        const int line = _line;
        const int col = _col;
        std::string text;
        while (identCont(peek())) {
            text += peek();
            advance();
        }
        // String-literal prefixes: the prefix is not a real identifier.
        if (peek() == '"') {
            if (text == "R" || text == "u8R" || text == "uR" ||
                text == "UR" || text == "LR") {
                scanRawString(line, col);
                return;
            }
            if (text == "u8" || text == "u" || text == "U" || text == "L") {
                scanString();
                return;
            }
        }
        _out.tokens.push_back(
            {Token::Kind::Ident, std::move(text), line, col});
    }

    void
    scanPunct()
    {
        const int line = _line;
        const int col = _col;
        for (const char *p : kPunct3) {
            if (peek() == p[0] && peek(1) == p[1] && peek(2) == p[2]) {
                advance();
                advance();
                advance();
                _out.tokens.push_back({Token::Kind::Punct, p, line, col});
                return;
            }
        }
        for (const char *p : kPunct2) {
            if (peek() == p[0] && peek(1) == p[1]) {
                advance();
                advance();
                _out.tokens.push_back({Token::Kind::Punct, p, line, col});
                return;
            }
        }
        std::string one(1, peek());
        advance();
        _out.tokens.push_back(
            {Token::Kind::Punct, std::move(one), line, col});
    }
};

} // namespace

SourceFile
scan(std::string relPath, const std::string &text)
{
    return Scanner(std::move(relPath), text).run();
}

const std::map<std::string, std::string> &
annotationRules()
{
    static const std::map<std::string, std::string> kMap = {
        {"banned-ok", "banned-ident"},
        {"unordered-ok", "unordered-iter"},
        {"function-ok", "std-function"},
        {"assert-ok", "assert-side-effect"},
        {"iostream-ok", "no-iostream"},
        {"guard-ok", "include-guard"},
        {"abort-ok", "no-raw-abort"},
        {"static-ok", "no-static-mutable"},
        {"capture-ok", "dangling-capture"},
        {"layer-ok", "layering"},
    };
    return kMap;
}

} // namespace pmlint
