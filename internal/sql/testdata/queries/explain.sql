CREATE TABLE TabDoc (
  DocID INTEGER PRIMARY KEY,
  Name VARCHAR(100),
  Year NUMBER);
CREATE TABLE TabChapter (
  ChapID INTEGER PRIMARY KEY,
  DocID INTEGER,
  Title VARCHAR(100));
INSERT INTO TabDoc VALUES (1, 'XML Handbook', 1999);
INSERT INTO TabChapter VALUES (1, 1, 'Intro');
INSERT INTO TabChapter VALUES (2, 1, 'Schemas');
EXPLAIN SELECT d.Name FROM TabDoc d WHERE d.DocID = 1;
EXPLAIN SELECT d.Name, c.Title FROM TabDoc d, TabChapter c
  WHERE c.DocID = d.DocID ORDER BY c.Title;
EXPLAIN PLAN FOR SELECT d.Name, COUNT(*) AS Cnt FROM TabDoc d, TabChapter c
  WHERE c.DocID = d.DocID GROUP BY d.Name ORDER BY Cnt DESC;
EXPLAIN SELECT COUNT(*) FROM TabChapter c WHERE c.Title = 'Intro';
CREATE TYPE Type_TabKw AS TABLE OF VARCHAR(50);
CREATE TABLE TabKwDoc (
  Name VARCHAR(50),
  Keywords Type_TabKw)
  NESTED TABLE Keywords STORE AS TabKw_List;
EXPLAIN SELECT k.COLUMN_VALUE FROM TabKwDoc d, TABLE(d.Keywords) k;
CREATE TYPE Type_Sec AS OBJECT(
  attrTitle VARCHAR(50));
CREATE TYPE Type_Para AS OBJECT(
  attrText VARCHAR(100),
  attrParentSec REF Type_Sec);
CREATE TABLE TabSec OF Type_Sec;
CREATE TABLE TabPara OF Type_Para;
CREATE TABLE TabSecDoc (
  DocID INTEGER,
  attrSec REF Type_Sec);
EXPLAIN SELECT p.attrText FROM TabSecDoc d, TabPara p
  WHERE d.DocID = 1 AND p.attrParentSec = d.attrSec
