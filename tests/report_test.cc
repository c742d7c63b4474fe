#include "eval/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_util.h"

namespace mrcc {
namespace {

struct Fixture {
  LabeledDataset dataset;
  MrCCResult result;
};

Fixture MakeFixture() {
  LabeledDataset ds = testing::SmallClustered(3000, 6, 3, 55);
  MrCC method;
  Result<MrCCResult> r = method.Run(ds.data);
  EXPECT_TRUE(r.ok());
  return {std::move(ds), std::move(r).value()};
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(ReportTest, SvgContainsPointsAndBoxes) {
  Fixture f = MakeFixture();
  ReportOptions options;
  options.max_points = 500;
  const std::string svg = RenderProjectionSvg(
      f.dataset.data, f.result.clustering, 0, 1, &f.result, options);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  const size_t circles = CountOccurrences(svg, "<circle");
  EXPECT_GT(circles, 100u);
  EXPECT_LE(circles, 520u);  // Subsampling honored (small slack).
  EXPECT_NE(svg.find("e1 vs e2"), std::string::npos);
}

TEST(ReportTest, SvgWithoutResultHasNoBoxes) {
  Fixture f = MakeFixture();
  ReportOptions options;
  const std::string svg = RenderProjectionSvg(
      f.dataset.data, f.result.clustering, 0, 1, nullptr, options);
  EXPECT_EQ(CountOccurrences(svg, "stroke-dasharray"), 0u);
}

TEST(ReportTest, HtmlReportIsSelfContained) {
  Fixture f = MakeFixture();
  const std::string html =
      RenderRunReportHtml(f.dataset.data, f.result, "unit test report");
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("unit test report"), std::string::npos);
  EXPECT_NE(html.find("correlation clusters"), std::string::npos);
  // One table row per cluster plus header.
  EXPECT_EQ(CountOccurrences(html, "<tr>"),
            f.result.clustering.NumClusters() + 1);
  // At least one projection panel.
  EXPECT_GE(CountOccurrences(html, "<svg"), 1u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST(ReportTest, PanelCountHonorsLimit) {
  Fixture f = MakeFixture();
  ReportOptions options;
  options.max_panels = 2;
  const std::string html =
      RenderRunReportHtml(f.dataset.data, f.result, "panels", options);
  EXPECT_LE(CountOccurrences(html, "<svg"), 2u);
}

TEST(ReportTest, WritesFile) {
  Fixture f = MakeFixture();
  const std::string path = testing::UniqueTempDir() + "mrcc_report.html";
  ASSERT_TRUE(WriteRunReport(f.dataset.data, f.result, "file test", path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_GT(contents.size(), 1000u);
  std::remove(path.c_str());
}

TEST(ReportTest, WriteToBadPathFails) {
  Fixture f = MakeFixture();
  EXPECT_FALSE(
      WriteRunReport(f.dataset.data, f.result, "x", "/nonexistent/r.html")
          .ok());
}

}  // namespace
}  // namespace mrcc
