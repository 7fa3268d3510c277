#include "trace/corpus.hh"

#include <cctype>
#include <cstdio>

#include "trace/tracev3.hh"

namespace replay::trace {

namespace {

using Kind = TraceError::Kind;

/**
 * Minimal JSON scanner for the corpus manifest schema: one object with
 * a "traces" array of flat objects whose values are strings or
 * unsigned integers.  Anything outside that shape is a parse error —
 * the manifest is machine-written, not hand-authored config.
 */
struct Scanner
{
    const std::string &text;
    size_t pos = 0;
    std::string err;

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c) {
            err = "expected '" + std::string(1, c) + "' at byte " +
                  std::to_string(pos);
            return false;
        }
        ++pos;
        return true;
    }

    bool
    peekIs(char c)
    {
        skipWs();
        return pos < text.size() && text[pos] == c;
    }

    bool
    string(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                err = "escapes unsupported at byte " +
                      std::to_string(pos);
                return false;
            }
            out.push_back(text[pos++]);
        }
        return expect('"');
    }

    bool
    number(uint64_t &out)
    {
        skipWs();
        const size_t start = pos;
        out = 0;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            out = out * 10 + uint64_t(text[pos++] - '0');
        if (pos == start) {
            err = "expected number at byte " + std::to_string(pos);
            return false;
        }
        return true;
    }
};

bool
parseHex64(const std::string &hex, uint64_t &out)
{
    if (hex.empty() || hex.size() > 16)
        return false;
    out = 0;
    for (const char c : hex) {
        out <<= 4;
        if (c >= '0' && c <= '9')
            out |= uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            out |= uint64_t(c - 'a' + 10);
        else
            return false;
    }
    return true;
}

std::string
dirOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

} // anonymous namespace

std::string
corpusDigestHex(uint64_t digest)
{
    static const char hex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[size_t(i)] = hex[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

TraceCorpus
TraceCorpus::load(const std::string &manifest_path)
{
    TraceCorpus corpus;
    corpus.path_ = manifest_path;
    corpus.dir_ = dirOf(manifest_path);

    std::string text;
    {
        std::FILE *file = std::fopen(manifest_path.c_str(), "rb");
        if (!file) {
            corpus.error_ = TraceError::at(
                Kind::OPEN_FAILED,
                "cannot open corpus manifest '" + manifest_path + "'",
                manifest_path, 0);
            return corpus;
        }
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
            text.append(buf, got);
        std::fclose(file);
    }

    auto parseFail = [&](const std::string &why) {
        corpus.error_ = TraceError::at(
            Kind::BAD_INDEX,
            "corpus manifest '" + manifest_path + "': " + why,
            manifest_path, 0);
        corpus.entries_.clear();
        return corpus;
    };

    Scanner s{text, 0, {}};
    if (!s.expect('{'))
        return parseFail(s.err);
    bool first_key = true;
    while (!s.peekIs('}')) {
        if (!first_key && !s.expect(','))
            return parseFail(s.err);
        first_key = false;
        std::string key;
        if (!s.string(key) || !s.expect(':'))
            return parseFail(s.err);
        if (key == "version") {
            uint64_t version = 0;
            if (!s.number(version))
                return parseFail(s.err);
            if (version != 1)
                return parseFail("unsupported manifest version " +
                                 std::to_string(version));
        } else if (key == "traces") {
            if (!s.expect('['))
                return parseFail(s.err);
            bool first_entry = true;
            while (!s.peekIs(']')) {
                if (!first_entry && !s.expect(','))
                    return parseFail(s.err);
                first_entry = false;
                if (!s.expect('{'))
                    return parseFail(s.err);
                CorpusEntry entry;
                std::string digest_hex;
                bool first_field = true;
                while (!s.peekIs('}')) {
                    if (!first_field && !s.expect(','))
                        return parseFail(s.err);
                    first_field = false;
                    std::string field;
                    if (!s.string(field) || !s.expect(':'))
                        return parseFail(s.err);
                    uint64_t num = 0;
                    if (field == "id") {
                        if (!s.string(entry.id))
                            return parseFail(s.err);
                    } else if (field == "workload") {
                        if (!s.string(entry.workload))
                            return parseFail(s.err);
                    } else if (field == "file") {
                        if (!s.string(entry.file))
                            return parseFail(s.err);
                    } else if (field == "digest") {
                        if (!s.string(digest_hex))
                            return parseFail(s.err);
                    } else if (field == "trace") {
                        if (!s.number(num))
                            return parseFail(s.err);
                        entry.traceIdx = unsigned(num);
                    } else if (field == "records") {
                        if (!s.number(num))
                            return parseFail(s.err);
                        entry.records = num;
                    } else {
                        return parseFail("unknown field '" + field +
                                         "'");
                    }
                }
                if (!s.expect('}'))
                    return parseFail(s.err);
                if (entry.id.empty() || entry.workload.empty() ||
                    entry.file.empty() || entry.records == 0)
                    return parseFail("entry '" + entry.id +
                                     "' is missing required fields");
                if (!parseHex64(digest_hex, entry.digest))
                    return parseFail("entry '" + entry.id +
                                     "' has a malformed digest");
                corpus.entries_.push_back(std::move(entry));
            }
            if (!s.expect(']'))
                return parseFail(s.err);
        } else {
            return parseFail("unknown key '" + key + "'");
        }
    }
    if (!s.expect('}'))
        return parseFail(s.err);

    for (size_t i = 0; i < corpus.entries_.size(); ++i)
        for (size_t j = i + 1; j < corpus.entries_.size(); ++j)
            if (corpus.entries_[i].id == corpus.entries_[j].id)
                return parseFail("duplicate entry id '" +
                                 corpus.entries_[i].id + "'");
    return corpus;
}

const CorpusEntry *
TraceCorpus::find(const std::string &workload, unsigned trace_idx,
                  uint64_t min_records) const
{
    for (const CorpusEntry &entry : entries_) {
        if (entry.workload == workload && entry.traceIdx == trace_idx &&
            (min_records == 0 || entry.records >= min_records))
            return &entry;
    }
    return nullptr;
}

const CorpusEntry *
TraceCorpus::findById(const std::string &id) const
{
    for (const CorpusEntry &entry : entries_)
        if (entry.id == id)
            return &entry;
    return nullptr;
}

std::string
TraceCorpus::resolvePath(const CorpusEntry &entry) const
{
    if (!entry.file.empty() && entry.file.front() == '/')
        return entry.file;
    return dir_ + entry.file;
}

std::unique_ptr<TraceSource>
TraceCorpus::open(const CorpusEntry &entry, uint64_t limit,
                  TraceError *err) const
{
    const std::string path = resolvePath(entry);
    TraceV3Source::Options opts;
    opts.limitRecords = limit;
    auto src = std::make_unique<TraceV3Source>(path, opts);
    if (!src->ok()) {
        if (err)
            *err = src->error();
        return nullptr;
    }
    // The manifest pins the recording length; a shorter container is a
    // stale or damaged artifact, and replaying it would silently
    // shorten the workload.
    const uint64_t have =
        limit && limit < entry.records ? limit : entry.records;
    if (src->totalRecords() < have) {
        if (err)
            *err = TraceError::at(
                Kind::TRUNCATED,
                "corpus trace '" + entry.id + "' holds " +
                    std::to_string(src->totalRecords()) +
                    " records, manifest pins " +
                    std::to_string(entry.records),
                path, 0);
        return nullptr;
    }
    if (err)
        *err = TraceError{};
    return src;
}

TraceError
writeCorpusManifest(const std::string &path,
                    const std::vector<CorpusEntry> &entries)
{
    std::string out = "{\n  \"version\": 1,\n  \"traces\": [";
    for (size_t i = 0; i < entries.size(); ++i) {
        const CorpusEntry &e = entries[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"id\": \"" + e.id + "\", ";
        out += "\"workload\": \"" + e.workload + "\", ";
        out += "\"trace\": " + std::to_string(e.traceIdx) + ", ";
        out += "\"records\": " + std::to_string(e.records) + ", ";
        out += "\"digest\": \"" + corpusDigestHex(e.digest) + "\", ";
        out += "\"file\": \"" + e.file + "\"}";
    }
    out += "\n  ]\n}\n";

    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return TraceError::at(Kind::OPEN_FAILED,
                              "cannot open corpus manifest '" + path +
                                  "' for writing",
                              path, 0);
    const bool wrote =
        std::fwrite(out.data(), out.size(), 1, file) == 1;
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !closed)
        return TraceError::at(Kind::WRITE_FAILED,
                              "cannot write corpus manifest '" + path +
                                  "'",
                              path, 0);
    return TraceError{};
}

} // namespace replay::trace
