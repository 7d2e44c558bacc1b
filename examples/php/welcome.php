<?php
// Welcome page: its only tainted output comes from the included banner.
// Line 6 here is a clean echo while line 6 of banner.php is the tainted
// one, so a leak can only be attributed by (file, line), not by line.
include 'banner.php';
echo "<p>Welcome back!</p>";
?>
