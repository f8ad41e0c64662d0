//===- support_test.cpp - Support library tests ---------------*- C++ -*-===//

#include "support/Env.h"
#include "support/Fs.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <cstdlib>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace isopredict;

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 16; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, SplitIndependent) {
  Rng Master(5);
  Rng C1 = Master.split(1);
  Rng C2 = Master.split(2);
  EXPECT_NE(C1.next(), C2.next());
  // Splitting is a pure function of (state, salt).
  Rng C1b = Master.split(1);
  Rng C1c = Master.split(1);
  EXPECT_EQ(C1b.next(), C1c.next());
}

TEST(Rng, ChanceExtremes) {
  Rng R(11);
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(R.chance(1, 1));
    EXPECT_FALSE(R.chance(0, 5));
  }
}

TEST(StrUtil, Split) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(StrUtil, ParseInt) {
  EXPECT_EQ(parseInt("42"), std::optional<int64_t>(42));
  EXPECT_EQ(parseInt("-7"), std::optional<int64_t>(-7));
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_FALSE(parseInt("12x").has_value());
  EXPECT_FALSE(parseInt("x12").has_value());
  EXPECT_FALSE(parseInt("999999999999999999999999").has_value());
}

// `unsigned` settings (CLI flags, tenant quotas) must reject values
// above UINT_MAX instead of wrapping them: 2^32 would become 0.
TEST(StrUtil, ParseUnsignedRejectsWhatWouldWrap) {
  EXPECT_EQ(parseUnsigned("0"), std::optional<unsigned>(0));
  EXPECT_EQ(parseUnsigned("4294967295"), std::optional<unsigned>(4294967295u));
  EXPECT_FALSE(parseUnsigned("4294967296").has_value());
  EXPECT_FALSE(parseUnsigned("8589934593").has_value());
  EXPECT_FALSE(parseUnsigned("-1").has_value());
  EXPECT_FALSE(parseUnsigned("7x").has_value());
  EXPECT_FALSE(parseUnsigned("0", 1).has_value());
  EXPECT_EQ(parseUnsigned("1", 1), std::optional<unsigned>(1));
  EXPECT_EQ(parseUnsigned("65535", 1, 65535), std::optional<unsigned>(65535));
  EXPECT_FALSE(parseUnsigned("65536", 1, 65535).has_value());
}

TEST(StrUtil, StartsWith) {
  EXPECT_TRUE(startsWith("history 3", "history"));
  EXPECT_FALSE(startsWith("his", "history"));
}

TEST(StrUtil, Format) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Env, DefaultsAndOverrides) {
  unsetenv("ISOPREDICT_TEST_ENVVAR");
  EXPECT_EQ(envInt("ISOPREDICT_TEST_ENVVAR", 5), 5);
  setenv("ISOPREDICT_TEST_ENVVAR", "12", 1);
  EXPECT_EQ(envInt("ISOPREDICT_TEST_ENVVAR", 5), 12);
  setenv("ISOPREDICT_TEST_ENVVAR", "garbage", 1);
  EXPECT_EQ(envInt("ISOPREDICT_TEST_ENVVAR", 5), 5);
  EXPECT_EQ(envString("ISOPREDICT_TEST_ENVVAR", "d"), "garbage");
  unsetenv("ISOPREDICT_TEST_ENVVAR");
}

TEST(Env, TimerAdvances) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("x\ny\t"), "x\\ny\\t");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ParsesDocumentsAndPreservesNumberSpellings) {
  std::string Error;
  std::optional<JsonValue> Doc = parseJson(
      "{\"a\": [1, 2.50, -3], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"x\\ny\"}",
      &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const JsonValue *A = Doc->field("a");
  ASSERT_TRUE(A && A->K == JsonValue::Kind::Array);
  ASSERT_EQ(A->Items.size(), 3u);
  EXPECT_EQ(A->Items[1].Text, "2.50"); // source spelling kept
  const JsonValue *B = Doc->field("b");
  ASSERT_TRUE(B && B->K == JsonValue::Kind::Object);
  EXPECT_EQ(B->field("c")->scalar(), "true");
  EXPECT_EQ(B->field("d")->scalar(), "null");
  EXPECT_EQ(Doc->field("e")->Text, "x\ny");
}

TEST(Json, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(parseJson("{\"a\": }", &Error).has_value());
  EXPECT_NE(Error.find("offset"), std::string::npos);
  EXPECT_FALSE(parseJson("[1, 2,]", nullptr).has_value());
  EXPECT_FALSE(parseJson("{} trailing", nullptr).has_value());
  EXPECT_FALSE(parseJson("", nullptr).has_value());
}

TEST(Json, WriterRoundTripsThroughParser) {
  JsonWriter W;
  W.openObject();
  W.str("name", "a \"quoted\" value");
  W.num("count", static_cast<uint64_t>(7));
  W.num("ratio", 0.5);
  W.boolean("flag", true);
  W.openArray("items");
  W.numElement(1);
  W.strElement("two");
  W.closeArray();
  W.closeObject();
  std::string Out = W.take();

  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->field("name")->Text, "a \"quoted\" value");
  EXPECT_EQ(Doc->field("count")->Text, "7");
  EXPECT_EQ(Doc->field("ratio")->Text, "0.500000"); // fixed %.6f render
  EXPECT_TRUE(Doc->field("flag")->B);
  ASSERT_EQ(Doc->field("items")->Items.size(), 2u);
}

TEST(Json, DepthLimitRejectsDeepNesting) {
  JsonParseLimits Limits;
  Limits.MaxDepth = 4;
  std::string Error;
  EXPECT_TRUE(parseJson("[[[[1]]]]", Limits, &Error).has_value());
  EXPECT_FALSE(parseJson("[[[[[1]]]]]", Limits, &Error).has_value());
  EXPECT_NE(Error.find("depth"), std::string::npos) << Error;
  Error.clear();
  // Four levels of objects sit exactly at the limit; a fifth exceeds it.
  EXPECT_TRUE(parseJson(R"({"a": {"b": {"c": {"d": 1}}}})", Limits, &Error)
                  .has_value());
  EXPECT_FALSE(
      parseJson(R"({"a": {"b": {"c": {"d": {"e": 1}}}}})", Limits, &Error)
          .has_value());
  EXPECT_NE(Error.find("depth"), std::string::npos) << Error;
}

TEST(Json, DepthLimitDefaultAcceptsOrdinaryDocuments) {
  // 100 levels sits under the default limit of 128.
  std::string Doc(100, '[');
  Doc += "1";
  Doc.append(100, ']');
  EXPECT_TRUE(parseJson(Doc, nullptr).has_value());
  // 200 levels does not.
  std::string Deep(200, '[');
  Deep += "1";
  Deep.append(200, ']');
  std::string Error;
  EXPECT_FALSE(parseJson(Deep, &Error).has_value());
  EXPECT_NE(Error.find("depth"), std::string::npos) << Error;
}

TEST(Json, SizeLimitRejectsOversizedDocuments) {
  JsonParseLimits Limits;
  Limits.MaxBytes = 16;
  std::string Error;
  EXPECT_TRUE(parseJson(R"({"a": 1})", Limits, &Error).has_value());
  EXPECT_FALSE(
      parseJson(R"({"a": "0123456789abcdef"})", Limits, &Error).has_value());
  EXPECT_NE(Error.find("bytes"), std::string::npos) << Error;
  // Zero means unlimited.
  Limits.MaxBytes = 0;
  EXPECT_TRUE(
      parseJson(R"({"a": "0123456789abcdef"})", Limits, &Error).has_value());
}

TEST(Json, CompactWriterEmitsOneLine) {
  JsonWriter J(JsonWriter::Style::Compact);
  J.openObject();
  J.str("name", "x");
  J.num("n", static_cast<uint64_t>(3));
  J.openArray("items");
  J.numElement(1);
  J.numElement(2);
  J.closeArray();
  J.closeObject();
  std::string Out = J.take();
  // One newline only: the trailing frame terminator.
  EXPECT_EQ(Out.back(), '\n');
  EXPECT_EQ(Out.find('\n'), Out.size() - 1);
  // Still valid JSON with the same content as the pretty form.
  std::optional<JsonValue> V = parseJson(Out, nullptr);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->field("name")->Text, "x");
  EXPECT_EQ(V->field("items")->Items.size(), 2u);
}

TEST(Fs, ReadWriteRoundTrip) {
  std::string Dir = testing::TempDir() + formatString("isopredict-fs-%ld",
                                                      (long)::getpid());
  ASSERT_TRUE(createDirectories(pathJoin(Dir, "a/b/c")));
  EXPECT_TRUE(pathExists(pathJoin(Dir, "a/b/c")));
  // Idempotent on existing directories.
  EXPECT_TRUE(createDirectories(pathJoin(Dir, "a/b")));

  std::string Path = pathJoin(Dir, "a/b/c/file.json");
  std::string Contents("line1\nline2\0binary", 18), Back;
  ASSERT_TRUE(writeFileAtomic(Path, Contents));
  ASSERT_TRUE(readFile(Path, Back));
  EXPECT_EQ(Back, Contents);

  // Atomic overwrite replaces the old bytes completely.
  ASSERT_TRUE(writeFileAtomic(Path, "v2"));
  ASSERT_TRUE(readFile(Path, Back));
  EXPECT_EQ(Back, "v2");

  std::string Error;
  EXPECT_FALSE(readFile(pathJoin(Dir, "missing"), Back, &Error));
  EXPECT_NE(Error.find("missing"), std::string::npos);
  // Writes into a non-existent directory fail cleanly.
  EXPECT_FALSE(writeFileAtomic(pathJoin(Dir, "no/such/dir/f"), "x", &Error));
}

TEST(Fs, PathJoin) {
  EXPECT_EQ(pathJoin("a", "b"), "a/b");
  EXPECT_EQ(pathJoin("a/", "b"), "a/b");
  EXPECT_EQ(pathJoin("", "b"), "b");
}

TEST(TablePrinter, AlignsAndSeparates) {
  TablePrinter T;
  T.setHeader({"Name", "Value"});
  T.addRow({"longer-name", "1"});
  T.addSeparator();
  T.addRow({"x", "22"});

  char Buf[512] = {0};
  FILE *Mem = fmemopen(Buf, sizeof(Buf) - 1, "w");
  ASSERT_NE(Mem, nullptr);
  T.print(Mem);
  std::fclose(Mem);
  std::string Out(Buf);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("----"), std::string::npos);
  // Right-aligned second column: "22" should appear after padding.
  EXPECT_NE(Out.find(" 22"), std::string::npos);
}
